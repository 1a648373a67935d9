package kir

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// The program validator. The dispatch loop (vm.go) indexes the register
// file, the buffer list, the dim vector, the function tables and the code
// array with operands it reads from the instruction, and trusts them: the
// compiler produced them. A program read back from an engine image did not
// come from this process's compiler, so ReadCompiled runs validate before
// the program can execute, and Finalize runs it on everything the compiler
// emits (a compiled program that would not reload is a compiler bug).
//
// validate proves, for every instruction, each access the dispatch loop
// makes on the operand alone (DESIGN §14 lists them):
//
//   - the opcode is one of the enum's;
//   - int register operands (including the consecutive base registers
//     d, d+1, d+2 of row ops) are below nInts, f32 register operands
//     (including c+1 of row.zip2s and both halves of row.fred*'s packed c)
//     below nFloats;
//   - buffer operands are below NumBuffers plus the row temporaries;
//     row.tmp names temporary b < nTmps as buffer NumBuffers+b and sizes it
//     by an immediate in [0, splitChunk];
//   - dim operands are below len(DimNames);
//   - function operands (and every packed half) index their tables;
//   - operand fields the opcode does not use are zero, so one program has
//     one encoding;
//   - termination: every jump goes forward, except the opLoopTail of a
//     properly nested opLoopHead/opLoopTail pair (the head's exit is the
//     tail's successor, the tail's target the head's successor, both name
//     the same counter and bound); forward jumps stay inside the innermost
//     loop they start in; and no instruction inside a loop writes that
//     loop's counter or bound register. Each loop then runs at most
//     bound-counter iterations per entry, and everything else runs once.
//
// What stays with Go's own checks, and surfaces as a recovered kernel panic
// (exec.RunContext), is data-dependent: element indices into buffers and
// rows, and integer division by zero. Those depend on runtime dims and
// values that no static check over the program can bound.

// Frame-size caps: a program that claims more registers, temporaries,
// buffers or dims than these is refused (the frame is allocated from the
// claimed sizes before the first instruction runs).
const (
	maxRegs    = 1 << 16
	maxTmps    = 1 << 10
	maxBuffers = 1 << 16
	maxDims    = 1 << 10
)

// Operand kinds of the validator's per-opcode table.
type operand uint8

const (
	oNone    operand = iota
	oInt             // int register
	oIntW            // int register, written
	oFlt             // f32 register
	oBuf             // buffer
	oDim             // dim slot
	oUn              // unary table index
	oBin             // binary table index
	oImm             // any immediate
	oTarget          // jump target (pc)
	oBase2           // int register d with d+1 also in range
	oBase3           // int register d with d+1, d+2 also in range
	oFlt2            // f32 register c with c+1 also in range
	oUnBin           // un<<8 | bin
	oBinBin          // bin2<<8 | bin1
	oFRedC           // acc<<16 | scalar, both f32 registers
	oFRedG           // bin2<<16 | un<<8 | (bin or binNoneIdx)
	oTmpSize         // immediate in [0, splitChunk]
)

// sig is an opcode's operand kinds for fields a, b, c, d, e, g, and
// whether fimm is used.
type sig struct {
	a, b, c, d, e, g operand
	fimm             bool
}

var opSigs = [...]sig{
	opNop:    {},
	opIConst: {a: oIntW, b: oImm},
	opIDim:   {a: oIntW, b: oDim},
	opIMov:   {a: oIntW, b: oInt},
	opIAdd:   {a: oIntW, b: oInt, c: oInt}, opISub: {a: oIntW, b: oInt, c: oInt},
	opIMul: {a: oIntW, b: oInt, c: oInt}, opIDiv: {a: oIntW, b: oInt, c: oInt},
	opIMod: {a: oIntW, b: oInt, c: oInt}, opIMin: {a: oIntW, b: oInt, c: oInt},
	opIAddImm: {a: oIntW, b: oInt, c: oImm}, opIMulImm: {a: oIntW, b: oInt, c: oImm},
	opIMulAdd: {a: oIntW, b: oInt, c: oInt, d: oInt},
	opILoad:   {a: oIntW, b: oBuf, c: oInt},
	opFConst:  {a: oFlt, fimm: true},
	opFMov:    {a: oFlt, b: oFlt},
	opFLoad:   {a: oFlt, b: oBuf, c: oInt},
	opFAdd:    {a: oFlt, b: oFlt, c: oFlt}, opFSub: {a: oFlt, b: oFlt, c: oFlt},
	opFMul: {a: oFlt, b: oFlt, c: oFlt}, opFDiv: {a: oFlt, b: oFlt, c: oFlt},
	opFMax: {a: oFlt, b: oFlt, c: oFlt}, opFMin: {a: oFlt, b: oFlt, c: oFlt},
	opFUn:    {a: oFlt, b: oUn, c: oFlt},
	opFBin:   {a: oFlt, b: oBin, c: oFlt, d: oFlt},
	opFCmpLT: {a: oFlt, b: oFlt, c: oFlt}, opFCmpLE: {a: oFlt, b: oFlt, c: oFlt},
	opFCmpGT: {a: oFlt, b: oFlt, c: oFlt}, opFCmpGE: {a: oFlt, b: oFlt, c: oFlt},
	opFCmpEQ: {a: oFlt, b: oFlt, c: oFlt}, opFCmpNE: {a: oFlt, b: oFlt, c: oFlt},
	opFCastInt:    {a: oFlt, b: oInt},
	opStore:       {a: oBuf, b: oInt, c: oFlt},
	opStoreInt:    {a: oBuf, b: oInt, c: oInt},
	opJump:        {a: oTarget},
	opJumpIfZ:     {a: oFlt, b: oTarget},
	opLoopHead:    {a: oInt, b: oInt, c: oTarget},
	opLoopTail:    {a: oIntW, b: oInt, c: oTarget},
	opRowCopy:     {a: oBuf, b: oBuf, d: oBase2, e: oInt},
	opRowMap1:     {a: oBuf, b: oBuf, d: oBase2, e: oInt, g: oUn},
	opRowZip:      {a: oBuf, b: oBuf, c: oBuf, d: oBase3, e: oInt, g: oBin},
	opRowZipSR:    {a: oBuf, b: oBuf, c: oFlt, d: oBase2, e: oInt, g: oBin},
	opRowZipSL:    {a: oBuf, b: oBuf, c: oFlt, d: oBase2, e: oInt, g: oBin},
	opRowMapZipSR: {a: oBuf, b: oBuf, c: oFlt, d: oBase2, e: oInt, g: oUnBin},
	opRowMapZipSL: {a: oBuf, b: oBuf, c: oFlt, d: oBase2, e: oInt, g: oUnBin},
	opRowZip2S:    {a: oBuf, b: oBuf, c: oFlt2, d: oBase2, e: oInt, g: oBinBin},
	opRowMapZip:   {a: oBuf, b: oBuf, c: oBuf, d: oBase3, e: oInt, g: oUnBin},
	opRowFill:     {a: oBuf, c: oFlt, d: oInt, e: oInt},
	opRowGathS:    {a: oBuf, b: oBuf, c: oInt, d: oBase2, e: oInt, g: oUn},
	opRowReduce:   {a: oFlt, b: oBuf, c: oInt, d: oInt, g: oBin},
	opRowFRedSR:   {a: oBuf, b: oBuf, c: oFRedC, d: oBase2, e: oInt, g: oFRedG},
	opRowFRedSL:   {a: oBuf, b: oBuf, c: oFRedC, d: oBase2, e: oInt, g: oFRedG},
	opRowTmp:      {a: oBuf, b: oImm, e: oTmpSize},
}

// numOps is the size of the opcode enum.
const numOps = int(opRowTmp) + 1

// ABI names the program encoding: the opcodes in enum order and the
// unary and binary function tables in index order. A program is only
// meaningful to a process with the same ABI, so engine images carry it and
// the persistent cache's compiler fingerprint includes it; reordering an
// opcode or a table entry changes it.
func ABI() string { return abi() }

// abi is built on first use: the function tables are filled by an init.
var abi = sync.OnceValue(func() string {
	var sb strings.Builder
	sb.WriteString("ops=")
	for op := 0; op < numOps; op++ {
		if op > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(opNames[op])
	}
	sb.WriteString(";un=")
	sb.WriteString(strings.Join(unaryNames, ","))
	sb.WriteString(";bin=")
	sb.WriteString(strings.Join(binaryNames, ","))
	return sb.String()
})

// validate checks the program against the frame sizes it declares; see the
// comment at the top of this file for the rules.
func (cp *Compiled) validate() error {
	if cp.nInts < 0 || cp.nInts > maxRegs || cp.nFloats < 0 || cp.nFloats > maxRegs {
		return fmt.Errorf("register file %d ints, %d floats out of range [0,%d]", cp.nInts, cp.nFloats, maxRegs)
	}
	if cp.nTmps < 0 || cp.nTmps > maxTmps {
		return fmt.Errorf("%d row temporaries out of range [0,%d]", cp.nTmps, maxTmps)
	}
	if cp.numBuffers < 0 || cp.numBuffers > maxBuffers || len(cp.dimNames) > maxDims {
		return fmt.Errorf("%d buffers, %d dims out of range", cp.numBuffers, len(cp.dimNames))
	}
	v := validator{cp: cp, code: cp.prog.code, nBufs: int64(cp.numBuffers + cp.nTmps)}
	return v.run()
}

type validator struct {
	cp    *Compiled
	code  []instr
	nBufs int64
	// loops is the stack of open loops: head pcs, innermost last.
	loops []int
	// jumps lists the forward jumps; region holds, for each pc and for
	// len(code), the head pc of the innermost loop whose body contains
	// it (-1 at top level). Both are only built when a program jumps.
	jumps  []int
	region []int32
}

func (v *validator) run() error {
	for pc := range v.code {
		in := &v.code[pc]
		if int(in.op) >= numOps {
			return fmt.Errorf("pc %d: opcode %d out of range", pc, in.op)
		}
		s := &opSigs[in.op]
		if !s.fimm && math.Float32bits(in.fimm) != 0 {
			return fmt.Errorf("pc %d: %s: unused immediate set", pc, opNames[in.op])
		}
		kinds := [6]operand{s.a, s.b, s.c, s.d, s.e, s.g}
		vals := [6]int32{in.a, in.b, in.c, in.d, in.e, in.g}
		for f, k := range kinds {
			if err := v.operand(k, vals[f]); err != nil {
				return fmt.Errorf("pc %d: %s: operand %c: %w", pc, opNames[in.op], "abcdeg"[f], err)
			}
		}
		if err := v.control(pc, in); err != nil {
			return fmt.Errorf("pc %d: %s: %w", pc, opNames[in.op], err)
		}
	}
	if len(v.loops) > 0 {
		return fmt.Errorf("loop at pc %d has no tail", v.loops[len(v.loops)-1])
	}
	return v.checkJumps()
}

// operand checks one operand field against its kind.
func (v *validator) operand(k operand, x int32) error {
	cp := v.cp
	in := func(x int32, n int64, what string) error {
		if x < 0 || int64(x) >= n {
			return fmt.Errorf("%s %d out of range [0,%d)", what, x, n)
		}
		return nil
	}
	nI, nF := int64(cp.nInts), int64(cp.nFloats)
	nUn, nBin := int64(len(unaryTable)), int64(len(binaryTable))
	switch k {
	case oNone:
		if x != 0 {
			return fmt.Errorf("unused operand set to %d", x)
		}
	case oInt, oIntW:
		return in(x, nI, "int register")
	case oFlt:
		return in(x, nF, "f32 register")
	case oBuf:
		return in(x, v.nBufs, "buffer")
	case oDim:
		return in(x, int64(len(cp.dimNames)), "dim")
	case oUn:
		return in(x, nUn, "unary function")
	case oBin:
		return in(x, nBin, "binary function")
	case oImm, oTarget:
		// Targets are checked with the control flow.
	case oBase2:
		return in(x, nI-1, "base register")
	case oBase3:
		return in(x, nI-2, "base register")
	case oFlt2:
		return in(x, nF-1, "f32 register pair")
	case oUnBin:
		if x < 0 || x >= 1<<16 {
			return fmt.Errorf("packed functions %#x out of range", x)
		}
		if err := in(x>>8, nUn, "unary function"); err != nil {
			return err
		}
		return in(x&0xff, nBin, "binary function")
	case oBinBin:
		if x < 0 || x >= 1<<16 {
			return fmt.Errorf("packed functions %#x out of range", x)
		}
		if err := in(x>>8, nBin, "binary function"); err != nil {
			return err
		}
		return in(x&0xff, nBin, "binary function")
	case oFRedC:
		if x < 0 {
			return fmt.Errorf("packed registers %#x out of range", x)
		}
		if err := in(x>>16, nF, "f32 register"); err != nil {
			return err
		}
		return in(x&0xffff, nF, "f32 register")
	case oFRedG:
		if x < 0 || x >= 1<<24 {
			return fmt.Errorf("packed functions %#x out of range", x)
		}
		if err := in(x>>16, nBin, "binary function"); err != nil {
			return err
		}
		if err := in(x>>8&0xff, nUn, "unary function"); err != nil {
			return err
		}
		if x&0xff != binNoneIdx {
			return in(x&0xff, nBin, "binary function")
		}
	case oTmpSize:
		if x < 0 || x > splitChunk {
			return fmt.Errorf("row temporary size %d out of range [0,%d]", x, splitChunk)
		}
	}
	return nil
}

// control checks the structural rules: row temporaries, loop nesting, the
// loop-register write rule and jump directions.
func (v *validator) control(pc int, in *instr) error {
	n := len(v.code)
	if s := &opSigs[in.op]; s.a == oIntW {
		for _, h := range v.loops {
			if hd := &v.code[h]; in.a == hd.a || in.a == hd.b {
				if in.op == opLoopTail && h == v.loops[len(v.loops)-1] {
					continue // a tail writes its own counter
				}
				return fmt.Errorf("writes register i%d of the loop at pc %d", in.a, h)
			}
		}
	}
	switch in.op {
	case opRowTmp:
		if in.b < 0 || int(in.b) >= v.cp.nTmps || int64(in.a) != int64(v.cp.numBuffers)+int64(in.b) {
			return fmt.Errorf("temporary %d is not buffer %d+%d of %d temporaries", in.a, v.cp.numBuffers, in.b, v.cp.nTmps)
		}
	case opJump, opJumpIfZ:
		t := in.a
		if in.op == opJumpIfZ {
			t = in.b
		}
		if int(t) <= pc || int(t) > n {
			return fmt.Errorf("jump target %d is not forward in (%d,%d]", t, pc, n)
		}
		v.jumps = append(v.jumps, pc)
	case opLoopHead:
		exit := int(in.c)
		if exit <= pc+1 || exit > n {
			return fmt.Errorf("loop exit %d out of range (%d,%d]", exit, pc+1, n)
		}
		tail := &v.code[exit-1]
		if tail.op != opLoopTail || tail.a != in.a || tail.b != in.b || int(tail.c) != pc+1 {
			return fmt.Errorf("loop exit %d does not follow a matching tail", exit)
		}
		v.loops = append(v.loops, pc)
	case opLoopTail:
		if len(v.loops) == 0 {
			return fmt.Errorf("tail without a head")
		}
		h := v.loops[len(v.loops)-1]
		if int(in.c) != h+1 || int(v.code[h].c) != pc+1 {
			return fmt.Errorf("tail does not close the loop at pc %d", h)
		}
		v.loops = v.loops[:len(v.loops)-1]
	}
	return nil
}

// checkJumps requires every forward jump to land in the innermost loop it
// starts in: never into a loop body past its head, never out of a body
// past its tail.
func (v *validator) checkJumps() error {
	if len(v.jumps) == 0 {
		return nil
	}
	v.region = make([]int32, len(v.code)+1)
	var open []int32
	for pc, in := range v.code {
		if in.op == opLoopTail {
			open = open[:len(open)-1]
		}
		r := int32(-1)
		if len(open) > 0 {
			r = open[len(open)-1]
		}
		v.region[pc] = r
		if in.op == opLoopHead {
			open = append(open, int32(pc))
		}
	}
	v.region[len(v.code)] = -1
	for _, pc := range v.jumps {
		in := &v.code[pc]
		t := in.a
		if in.op == opJumpIfZ {
			t = in.b
		}
		// A tail belongs to its loop's body: region is assigned after the
		// pop, so compare a tail by the loop it closes.
		if v.regionOf(pc) != v.regionOf(int(t)) {
			return fmt.Errorf("pc %d: jump to %d crosses a loop boundary", pc, t)
		}
	}
	return nil
}

// regionOf returns the head pc of the innermost loop whose body holds pc:
// a head is outside its own loop, a tail inside it.
func (v *validator) regionOf(pc int) int32 {
	if pc < len(v.code) && v.code[pc].op == opLoopTail {
		return int32(v.code[pc].c) - 1
	}
	return v.region[pc]
}
