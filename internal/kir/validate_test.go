package kir

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"godisc/internal/wire"
)

// testProgram wraps code in a Compiled with the given frame.
func testProgram(code []instr, nInts, nFloats, nBufs, nTmps, nDims int) *Compiled {
	cp := &Compiled{name: "t", numBuffers: nBufs, nInts: nInts, nFloats: nFloats, nTmps: nTmps,
		prog: &program{code: code}}
	for i := 0; i < nDims; i++ {
		cp.dimNames = append(cp.dimNames, fmt.Sprintf("d%d", i))
	}
	return cp
}

// Frame of the boundary programs below: every operand kind has a distinct
// bound, so an operand checked against the wrong frame size shows.
const (
	tInts, tFloats, tBufs, tTmps, tDims = 7, 5, 3, 2, 4
	tBufLen                             = 16
)

// maxOperand returns the largest value of an operand kind the validator
// accepts in the test frame.
func maxOperand(k operand) int32 {
	switch k {
	case oInt, oIntW:
		return tInts - 1
	case oFlt:
		return tFloats - 1
	case oBuf:
		return tBufs + tTmps - 1
	case oDim:
		return tDims - 1
	case oUn:
		return int32(len(unaryTable) - 1)
	case oBin:
		return int32(len(binaryTable) - 1)
	case oBase2:
		return tInts - 2
	case oBase3:
		return tInts - 3
	case oFlt2:
		return tFloats - 2
	case oUnBin:
		return int32(len(unaryTable)-1)<<8 | int32(len(binaryTable)-1)
	case oBinBin:
		return int32(len(binaryTable)-1)<<8 | int32(len(binaryTable)-1)
	case oFRedC:
		return (tFloats-1)<<16 | (tFloats - 1)
	case oFRedG:
		return int32(len(binaryTable)-1)<<16 | int32(len(unaryTable)-1)<<8 | int32(len(binaryTable)-1)
	case oTmpSize:
		return splitChunk
	}
	return 0
}

// boundaryProgram places op with every operand at its largest accepted
// value into a program the validator accepts: loops get their matching
// half, jumps and row.tmp their structural operands.
func boundaryProgram(op opcode) []instr {
	s := opSigs[op]
	in := instr{op: op}
	fields := []*int32{&in.a, &in.b, &in.c, &in.d, &in.e, &in.g}
	for f, k := range []operand{s.a, s.b, s.c, s.d, s.e, s.g} {
		*fields[f] = maxOperand(k)
	}
	if s.fimm {
		in.fimm = 1.5
	}
	switch op {
	case opJump:
		in.a = 1
	case opJumpIfZ:
		in.b = 1
	case opLoopHead:
		in.c = 2
		return []instr{in, {op: opLoopTail, a: in.a, b: in.b, c: 1}}
	case opLoopTail:
		in.c = 1
		return []instr{{op: opLoopHead, a: in.a, b: in.b, c: 2}, in}
	case opRowTmp:
		in.a, in.b = tBufs+tTmps-1, tTmps-1
	}
	return []instr{in}
}

// runBoundary runs a program on the exact test frame: ints hold 1 (row
// counts and bases of one element, divisors of one), buffers and
// temporaries hold tBufLen elements.
func runBoundary(cp *Compiled) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f := &Frame{ints: make([]int, tInts), floats: make([]float32, tFloats), dims: make([]int, tDims)}
	for i := range f.ints {
		f.ints[i] = 1
	}
	f.tmps = make([][]float32, tTmps)
	for i := 0; i < tBufs+tTmps; i++ {
		f.bufs = append(f.bufs, make([]float32, tBufLen))
	}
	copy(f.tmps, f.bufs[tBufs:])
	cp.prog.exec(f)
	return nil
}

// TestValidatorMatchesDispatch proves the validator's operand table against
// the dispatch loop, opcode by opcode: every operand at its largest
// accepted value runs without touching anything outside the frame, and
// every register, buffer, dim or function operand one past it is refused.
// A table entry looser than what the VM indexes fails the first half; one
// naming the wrong kind fails one of the two.
func TestValidatorMatchesDispatch(t *testing.T) {
	for op := opcode(0); int(op) < numOps; op++ {
		code := boundaryProgram(op)
		cp := testProgram(code, tInts, tFloats, tBufs, tTmps, tDims)
		if err := cp.validate(); err != nil {
			t.Fatalf("%s: boundary program refused: %v", opNames[op], err)
		}
		if err := runBoundary(cp); err != nil {
			t.Fatalf("%s: boundary program: %v\n%s", opNames[op], err, cp.Disassemble())
		}
		s := opSigs[op]
		at := 0
		if op == opLoopTail {
			at = 1
		}
		for f, k := range []operand{s.a, s.b, s.c, s.d, s.e, s.g} {
			switch k {
			case oImm, oTarget, oFRedC, oFRedG, oUnBin, oBinBin:
				continue // packed and structural operands: see TestValidatorRejects
			}
			bad := append([]instr(nil), code...)
			fields := []*int32{&bad[at].a, &bad[at].b, &bad[at].c, &bad[at].d, &bad[at].e, &bad[at].g}
			*fields[f]++
			if k == oNone {
				*fields[f] = 1
			}
			if err := testProgram(bad, tInts, tFloats, tBufs, tTmps, tDims).validate(); err == nil {
				t.Errorf("%s: operand %c = %d accepted", opNames[op], "abcdeg"[f], *fields[f])
			}
		}
	}
}

// TestValidatorRejects holds one case per rule the validator enforces.
func TestValidatorRejects(t *testing.T) {
	loop := func(body ...instr) []instr {
		// i0 counter, i1 bound.
		code := []instr{{op: opIConst, a: 0}, {op: opIDim, a: 1}, {op: opLoopHead, a: 0, b: 1}}
		code = append(code, body...)
		tail := len(code)
		code = append(code, instr{op: opLoopTail, a: 0, b: 1, c: 3})
		code[2].c = int32(tail + 1)
		return code
	}
	cases := map[string]struct {
		code  []instr
		frame [5]int // ints, floats, bufs, tmps, dims
		want  string
	}{
		"opcode":          {[]instr{{op: opcode(numOps)}}, [5]int{1, 1, 1, 0, 1}, "opcode"},
		"int register":    {[]instr{{op: opIMov, a: 0, b: 1}}, [5]int{1, 1, 1, 0, 1}, "int register"},
		"negative reg":    {[]instr{{op: opFMov, a: -1}}, [5]int{1, 1, 1, 0, 1}, "f32 register"},
		"f32 register":    {[]instr{{op: opFMov, a: 0, b: 2}}, [5]int{1, 2, 1, 0, 1}, "f32 register"},
		"buffer":          {[]instr{{op: opFLoad, b: 1}}, [5]int{1, 1, 1, 0, 1}, "buffer"},
		"dim":             {[]instr{{op: opIDim, b: 1}}, [5]int{1, 1, 1, 0, 1}, "dim"},
		"unary fn":        {[]instr{{op: opFUn, b: int32(len(unaryTable))}}, [5]int{1, 1, 1, 0, 1}, "unary"},
		"binary fn":       {[]instr{{op: opFBin, b: int32(len(binaryTable))}}, [5]int{1, 1, 1, 0, 1}, "binary"},
		"packed un":       {[]instr{{op: opRowMapZipSR, g: int32(len(unaryTable)) << 8}}, [5]int{2, 1, 1, 0, 1}, "unary"},
		"packed negative": {[]instr{{op: opRowMapZipSR, g: -1}}, [5]int{2, 1, 1, 0, 1}, "packed"},
		"fred acc":        {[]instr{{op: opRowFRedSR, c: 1 << 16}}, [5]int{2, 1, 1, 0, 1}, "f32 register"},
		"fred bin2":       {[]instr{{op: opRowFRedSR, g: int32(len(binaryTable)) << 16}}, [5]int{2, 1, 1, 0, 1}, "binary"},
		"zip2s pair":      {[]instr{{op: opRowZip2S, c: 0}}, [5]int{2, 1, 1, 0, 1}, "pair"},
		"row base":        {[]instr{{op: opRowZip, d: 0}}, [5]int{2, 1, 1, 0, 1}, "base"},
		"unused operand":  {[]instr{{op: opFMov, d: 3}}, [5]int{1, 1, 1, 0, 1}, "unused"},
		"unused imm":      {[]instr{{op: opFMov, fimm: 1}}, [5]int{1, 1, 1, 0, 1}, "unused immediate"},
		"tmp not temp":    {[]instr{{op: opRowTmp, a: 0, b: 0}}, [5]int{1, 1, 1, 1, 1}, "temporary"},
		"tmp index":       {[]instr{{op: opRowTmp, a: 2, b: 0}}, [5]int{1, 1, 1, 2, 1}, "temporary"},
		"tmp size":        {[]instr{{op: opRowTmp, a: 1, e: splitChunk + 1}}, [5]int{1, 1, 1, 1, 1}, "size"},
		"tmp negative":    {[]instr{{op: opRowTmp, a: 1, e: -1}}, [5]int{1, 1, 1, 1, 1}, "size"},
		"backward jump":   {[]instr{{op: opNop}, {op: opJump, a: 0}}, [5]int{1, 1, 1, 0, 1}, "forward"},
		"self jump":       {[]instr{{op: opJump, a: 0}}, [5]int{1, 1, 1, 0, 1}, "forward"},
		"jump past end":   {[]instr{{op: opJumpIfZ, b: 2}}, [5]int{1, 1, 1, 0, 1}, "forward"},
		"jump into loop": {[]instr{{op: opJump, a: 4}, {op: opIConst, a: 0}, {op: opIDim, a: 1},
			{op: opLoopHead, a: 0, b: 1, c: 6}, {op: opNop}, {op: opLoopTail, a: 0, b: 1, c: 4}},
			[5]int{2, 1, 1, 0, 1}, "crosses"},
		"jump out of loop": {loop(instr{op: opJump, a: 6}, instr{op: opNop}),
			[5]int{2, 1, 1, 0, 1}, "crosses"},
		"head without tail": {[]instr{{op: opLoopHead, c: 1}}, [5]int{1, 1, 1, 0, 1}, "loop exit"},
		"tail without head": {[]instr{{op: opLoopTail, c: 0}}, [5]int{1, 1, 1, 0, 1}, "without a head"},
		"tail other counter": {[]instr{{op: opLoopHead, a: 0, b: 1, c: 2}, {op: opLoopTail, a: 1, b: 1, c: 1}},
			[5]int{2, 1, 1, 0, 1}, "matching tail"},
		"tail wrong target": {[]instr{{op: opLoopHead, a: 0, b: 1, c: 3}, {op: opNop}, {op: opLoopTail, a: 0, b: 1, c: 2}},
			[5]int{2, 1, 1, 0, 1}, "matching tail"},
		"crossed loops": {[]instr{
			{op: opLoopHead, a: 0, b: 1, c: 3}, {op: opLoopHead, a: 2, b: 1, c: 4},
			{op: opLoopTail, a: 0, b: 1, c: 1}, {op: opLoopTail, a: 2, b: 1, c: 2}},
			[5]int{3, 1, 1, 0, 1}, ""},
		"writes counter": {loop(instr{op: opIConst, a: 0, b: 0}), [5]int{2, 1, 1, 0, 1}, "writes register i0"},
		"writes bound":   {loop(instr{op: opIAddImm, a: 1, b: 1, c: 1}), [5]int{2, 1, 1, 0, 1}, "writes register i1"},
		"inner reuses": {[]instr{{op: opIConst, a: 0}, {op: opIDim, a: 1},
			{op: opLoopHead, a: 0, b: 1, c: 8}, {op: opIConst, a: 0}, {op: opLoopHead, a: 0, b: 1, c: 7},
			{op: opNop}, {op: opLoopTail, a: 0, b: 1, c: 5}, {op: opLoopTail, a: 0, b: 1, c: 3}},
			[5]int{2, 1, 1, 0, 1}, "writes register i0"},
		"too many regs":    {nil, [5]int{maxRegs + 1, 0, 0, 0, 0}, "register file"},
		"too many tmps":    {nil, [5]int{0, 0, 0, maxTmps + 1, 0}, "temporaries"},
		"too many buffers": {nil, [5]int{0, 0, maxBuffers + 1, 0, 0}, "buffers"},
	}
	for name, c := range cases {
		fr := c.frame
		err := testProgram(c.code, fr[0], fr[1], fr[2], fr[3], fr[4]).validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %v, want an error containing %q", name, err, c.want)
		}
	}
}

// TestProgramBinaryRoundTrip reads back every program the hand-written and
// random kernels compile to, and requires the same program.
func TestProgramBinaryRoundTrip(t *testing.T) {
	var kernels []*Kernel
	for seed := int64(0); seed < 300; seed++ {
		kernels = append(kernels, genProgram(seed), genSweep(seed))
	}
	kernels = append(kernels, addKernel())
	for _, k := range kernels {
		cp, err := k.Finalize()
		if err != nil {
			continue // genProgram may emit programs Finalize rejects
		}
		w := wire.NewWriter(0)
		cp.AppendBinary(w)
		r := wire.NewReader(w.Bytes())
		got, err := ReadCompiled(r)
		if err != nil {
			t.Fatalf("%s: %v\n%s", k.Name, err, cp.Disassemble())
		}
		again := wire.NewWriter(0)
		got.AppendBinary(again)
		if r.Remaining() != 0 || !bytes.Equal(again.Bytes(), w.Bytes()) || got.Disassemble() != cp.Disassemble() {
			t.Fatalf("%s: program differs after a round trip", k.Name)
		}
		if got.AST() != nil || got.Source() != got.Disassemble() {
			t.Fatalf("%s: a read program claims an AST", k.Name)
		}
	}
}

// TestABINamesTables pins what the ABI string covers.
func TestABINamesTables(t *testing.T) {
	abi := ABI()
	for _, want := range []string{"ops=nop,iconst,", ",row.tmp;", "un=abs,", "bin=add,div,max,min,mul,pow,sub"} {
		if !strings.Contains(abi, want) {
			t.Errorf("ABI %q lacks %q", abi, want)
		}
	}
}
