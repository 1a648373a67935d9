package kir

import (
	"encoding/binary"
	"fmt"
	"math"

	"godisc/internal/wire"
)

// The persisted form of a compiled program, written into engine images:
// the kernel's name, buffer count and dim names, the frame sizes, the
// compile statistics, and the instruction array as fixed-width records
// (opcode byte, six little-endian int32 operands, the f32 immediate's
// bits). Reading it back is a copy plus validate: no AST, no compile.

// instrSize is the encoded size of one instruction.
const instrSize = 1 + 6*4 + 4

// AppendBinary writes the program to w.
func (cp *Compiled) AppendBinary(w *wire.Writer) {
	w.String(cp.name)
	w.Int(cp.numBuffers)
	w.Count(len(cp.dimNames))
	for _, d := range cp.dimNames {
		w.String(d)
	}
	w.Int(cp.nInts)
	w.Int(cp.nFloats)
	w.Int(cp.nTmps)
	p := cp.prog
	w.Int(p.supers)
	w.Count(len(p.perElem))
	for _, why := range p.perElem {
		w.String(why)
	}
	w.Count(len(p.code))
	for i := range p.code {
		in := &p.code[i]
		w.Byte(byte(in.op))
		w.Int32(in.a)
		w.Int32(in.b)
		w.Int32(in.c)
		w.Int32(in.d)
		w.Int32(in.e)
		w.Int32(in.g)
		w.Float32(in.fimm)
	}
}

// ReadCompiled reads a program written by AppendBinary and validates it
// (validate.go) before returning it: a program that passes runs inside its
// frame and terminates, whatever bytes it was read from.
func ReadCompiled(r *wire.Reader) (*Compiled, error) {
	cp := &Compiled{name: r.String(), numBuffers: r.Int()}
	if n := r.Count(1); n > 0 {
		cp.dimNames = make([]string, n)
		for i := range cp.dimNames {
			cp.dimNames[i] = r.String()
		}
	}
	cp.nInts, cp.nFloats, cp.nTmps = r.Int(), r.Int(), r.Int()
	p := &program{supers: r.Int()}
	if n := r.Count(1); n > 0 {
		p.perElem = make([]string, n)
		for i := range p.perElem {
			p.perElem[i] = r.String()
		}
	}
	n := r.Count(instrSize)
	raw := r.Raw(n * instrSize)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kir: reading program: %w", err)
	}
	p.code = make([]instr, n)
	le := binary.LittleEndian
	for i := range p.code {
		b := raw[i*instrSize : (i+1)*instrSize]
		p.code[i] = instr{
			op: opcode(b[0]),
			a:  int32(le.Uint32(b[1:])), b: int32(le.Uint32(b[5:])), c: int32(le.Uint32(b[9:])),
			d: int32(le.Uint32(b[13:])), e: int32(le.Uint32(b[17:])), g: int32(le.Uint32(b[21:])),
			fimm: math.Float32frombits(le.Uint32(b[25:])),
		}
	}
	cp.prog = p
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("kir: program %s: %w", cp.name, err)
	}
	return cp, nil
}
