package kir

import (
	"fmt"
	"sort"

	"godisc/internal/tensor"
)

// The bytecode compiler: Finalize's backend. The kernel AST is
// compiled once into a flat []instr over a flat register file (Frame.ints /
// Frame.floats) and executed by the dispatch loop in vm.go. Named scalar
// functions are resolved to direct indices into ordered tables at compile
// time; loops compile to an entry test plus a backward-jumping tail; and
// contiguous loop bodies (hinted by codegen via LoopStride1, then verified
// structurally in sweep.go) compile to whole-row superinstructions.

// opcode enumerates bytecode operations. Operand meanings are documented
// per op; a..g are the fixed-width int32 operands of instr.
type opcode uint8

const (
	opNop opcode = iota

	// Integer ALU (dst/src are ints registers).
	opIConst  // ints[a] = b
	opIDim    // ints[a] = dims[b]
	opIMov    // ints[a] = ints[b]
	opIAdd    // ints[a] = ints[b] + ints[c]
	opISub    // ints[a] = ints[b] - ints[c]
	opIMul    // ints[a] = ints[b] * ints[c]
	opIDiv    // ints[a] = ints[b] / ints[c]
	opIMod    // ints[a] = ints[b] % ints[c]
	opIMin    // ints[a] = min(ints[b], ints[c])
	opIAddImm // ints[a] = ints[b] + c
	opIMulImm // ints[a] = ints[b] * c
	opIMulAdd // ints[a] = ints[b]*ints[c] + ints[d]
	opILoad   // ints[a] = int(bufs[b][ints[c]])

	// f32 ALU (dst/src are floats registers).
	opFConst   // floats[a] = fimm
	opFMov     // floats[a] = floats[b]
	opFLoad    // floats[a] = bufs[b][ints[c]]
	opFAdd     // floats[a] = floats[b] + floats[c]
	opFSub     // floats[a] = floats[b] - floats[c]
	opFMul     // floats[a] = floats[b] * floats[c]
	opFDiv     // floats[a] = floats[b] / floats[c]
	opFMax     // floats[a] = max(floats[b], floats[c])  (FnMax semantics)
	opFMin     // floats[a] = min(floats[b], floats[c])  (FnMin semantics)
	opFUn      // floats[a] = unaryTable[b](floats[c])
	opFBin     // floats[a] = binaryTable[b](floats[c], floats[d])
	opFCmpLT   // floats[a] = floats[b] <  floats[c] ? 1 : 0
	opFCmpLE   // floats[a] = floats[b] <= floats[c] ? 1 : 0
	opFCmpGT   // floats[a] = floats[b] >  floats[c] ? 1 : 0
	opFCmpGE   // floats[a] = floats[b] >= floats[c] ? 1 : 0
	opFCmpEQ   // floats[a] = floats[b] == floats[c] ? 1 : 0
	opFCmpNE   // floats[a] = floats[b] != floats[c] ? 1 : 0
	opFCastInt // floats[a] = float32(ints[b])

	// Stores.
	opStore    // bufs[a][ints[b]] = floats[c]
	opStoreInt // bufs[a][ints[b]] = float32(ints[c])

	// Control flow. Jump targets are absolute pcs.
	opJump     // pc = a
	opJumpIfZ  // if floats[a] == 0 { pc = b }
	opLoopHead // if ints[a] >= ints[b] { pc = c }   (loop entry test)
	opLoopTail // t := ints[a]+1; if t < ints[b] { ints[a] = t; pc = c }

	// Superinstructions: one dispatch runs a whole contiguous row. Unless
	// noted, a = dst buffer, b = src buffer, d = first of consecutive base
	// registers (ints[d] = dst base, ints[d+1] = src base, ints[d+2] =
	// second src base for zip), e = element-count register, g = function
	// index (un<<8 | bin where two are needed). n <= 0 is a no-op.
	opRowCopy     // dst[i] = src[i]                      (memmove; dst != src buffer)
	opRowMap1     // dst[i] = un[g](src[i])
	opRowZip      // dst[i] = bin[g](x[i], y[i]); b = x buf, c = y buf
	opRowZipSR    // dst[i] = bin[g](src[i], floats[c])
	opRowZipSL    // dst[i] = bin[g](floats[c], src[i])
	opRowMapZipSR // dst[i] = un[g>>8](bin[g&255](src[i], floats[c]))
	opRowMapZipSL // dst[i] = un[g>>8](bin[g&255](floats[c], src[i]))
	opRowZip2S    // dst[i] = bin[g>>8](bin[g&255](src[i], floats[c]), floats[c+1])
	opRowMapZip   // dst[i] = un[g>>8](bin[g&255](x[i], y[i])); b = x buf, c = y buf
	opRowFill     // dst[i] = floats[c]
	opRowGathS    // dst[i] = un[g](bufs[b][ints[d+1] + i*ints[c]]) (strided source)
	opRowReduce   // floats[a] = fold of bin[g] over bufs[b][ints[c] : +ints[d]]
	// Fused store+reduce sweeps: dst[i] = un[g>>8&255](bin[g&255](src[i],
	// floats[c&0xffff])); floats[c>>16] = fold of bin[g>>16] over the stored
	// values. bin g&255 == binNoneIdx skips the scalar stage; SL puts the
	// scalar on the left of the inner bin.
	opRowFRedSR
	opRowFRedSL
	// opRowTmp makes row temporary b (buffer a, after the kernel's own)
	// hold at least e elements, growing the frame-owned row. e is an
	// immediate no larger than splitChunk, so a program's temporaries are
	// bounded by its own text.
	opRowTmp
)

// instr is one fixed-width bytecode instruction.
type instr struct {
	op      opcode
	a, b, c int32
	d, e, g int32
	fimm    float32
}

// program is a compiled bytecode kernel.
type program struct {
	code []instr
	// supers counts emitted superinstructions (for tests and tracing).
	supers int
	// perElem holds, for each LoopStride1 loop compiled to per-element
	// bytecode, the rule that kept it off the row path.
	perElem []string
}

// Ordered function tables: FUn/FBin names resolve to direct indices at
// compile time so dispatch never touches a map. Sorted for determinism.
var (
	unaryNames  []string
	unaryTable  []tensor.UnaryFunc
	unaryIndex  = map[string]int{}
	binaryNames []string
	binaryTable []tensor.BinaryFunc
	binaryIndex = map[string]int{}

	// Fast indices for the ops the VM open-codes in superinstruction loops.
	bcAdd, bcSub, bcMul, bcDiv, bcMax, bcMin int
	bcIdUn, bcExpUn                          int
)

func init() {
	for name := range unaryFuncs {
		unaryNames = append(unaryNames, name)
	}
	sort.Strings(unaryNames)
	for i, name := range unaryNames {
		unaryIndex[name] = i
		unaryTable = append(unaryTable, unaryFuncs[name])
	}
	for name := range binaryFuncs {
		binaryNames = append(binaryNames, name)
	}
	sort.Strings(binaryNames)
	for i, name := range binaryNames {
		binaryIndex[name] = i
		binaryTable = append(binaryTable, binaryFuncs[name])
	}
	bcAdd = binaryIndex["add"]
	bcSub = binaryIndex["sub"]
	bcMul = binaryIndex["mul"]
	bcDiv = binaryIndex["div"]
	bcMax = binaryIndex["max"]
	bcMin = binaryIndex["min"]
	bcIdUn = unaryIndex["id"]
	bcExpUn = unaryIndex["exp"]
}

type bcompiler struct {
	k       *Kernel
	dimSlot map[string]int
	intSlot map[string]int32
	fltSlot map[string]int32
	// Register allocation: named locals occupy [0, len(slot)); temps are a
	// stack above them, released at statement boundaries. nInt/nFlt are the
	// high-water marks that size pooled frames.
	nInt, nFlt     int32
	tmpInt, tmpFlt int32
	// defInt/defFlt track which named locals have been defined at the
	// current compile point. Slots are pre-assigned by collectLocals, but a
	// read before the defining statement must fail compilation: names are
	// defined in compile-time encounter order (loop extents before the loop
	// variable; set targets before their right-hand sides).
	defInt, defFlt map[string]bool
	code           []instr
	supers         int
	perElem        []string
	// nTmp is the number of row temporaries the sweeps need (the most any
	// one sweep uses; sweeps never overlap).
	nTmp int
	// reads is the kernel's read census; a sweep compiled to row ops
	// requires the locals it never materializes to have no reads outside
	// the loop. loopSeq counts the loops compiled so far, in pre-order,
	// which indexes reads.loops: a loop whose body compiles to row ops has
	// no loops inside it, so every loop is visited exactly once.
	reads   readIndex
	loopSeq int
	err     error
}

func (c *bcompiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("kir: kernel %s: %s", c.k.Name, fmt.Sprintf(format, args...))
	}
}

func (c *bcompiler) checkBuf(i int) {
	if i < 0 || i >= c.k.NumBuffers {
		c.fail("buffer index %d out of range [0,%d)", i, c.k.NumBuffers)
	}
}

// finalizeBytecode compiles the kernel body into cp.prog.
func (cp *Compiled) finalizeBytecode(dimSlot map[string]int) error {
	c := &bcompiler{
		k:       cp.kernel,
		dimSlot: dimSlot,
		intSlot: map[string]int32{},
		fltSlot: map[string]int32{},
		defInt:  map[string]bool{},
		defFlt:  map[string]bool{},
	}
	c.collectLocals(cp.kernel.Body)
	c.tmpInt = int32(len(c.intSlot))
	c.tmpFlt = int32(len(c.fltSlot))
	c.nInt, c.nFlt = c.tmpInt, c.tmpFlt
	c.reads = indexReads(cp.kernel.Body)
	c.compileStmts(cp.kernel.Body)
	if c.err != nil {
		return c.err
	}
	cp.prog = &program{code: c.code, supers: c.supers, perElem: c.perElem}
	cp.nInts = int(c.nInt)
	cp.nFloats = int(c.nFlt)
	cp.nTmps = c.nTmp
	return nil
}

// collectLocals pre-assigns a register to every assigned name (loop vars,
// SSetInt and SSet targets). Reads of names never assigned anywhere fail
// compilation.
func (c *bcompiler) collectLocals(ss []Stmt) {
	for _, s := range ss {
		switch s := s.(type) {
		case SLoop:
			c.defineInt(s.Var)
			c.collectLocals(s.Body)
		case SSetInt:
			c.defineInt(s.Var)
		case SSet:
			c.defineFlt(s.Var)
		}
	}
}

func (c *bcompiler) defineInt(name string) int32 {
	if r, ok := c.intSlot[name]; ok {
		return r
	}
	r := int32(len(c.intSlot))
	c.intSlot[name] = r
	return r
}

func (c *bcompiler) defineFlt(name string) int32 {
	if r, ok := c.fltSlot[name]; ok {
		return r
	}
	r := int32(len(c.fltSlot))
	c.fltSlot[name] = r
	return r
}

func (c *bcompiler) intReg(name string) int32 {
	r, ok := c.intSlot[name]
	if !ok || !c.defInt[name] {
		c.fail("use of undefined int var %q", name)
	}
	return r
}

func (c *bcompiler) fltReg(name string) int32 {
	r, ok := c.fltSlot[name]
	if !ok || !c.defFlt[name] {
		c.fail("use of undefined f32 local %q", name)
	}
	return r
}

func (c *bcompiler) tempInt() int32 {
	r := c.tmpInt
	c.tmpInt++
	if c.tmpInt > c.nInt {
		c.nInt = c.tmpInt
	}
	return r
}

func (c *bcompiler) tempFlt() int32 {
	r := c.tmpFlt
	c.tmpFlt++
	if c.tmpFlt > c.nFlt {
		c.nFlt = c.tmpFlt
	}
	return r
}

func (c *bcompiler) emit(i instr) int {
	c.code = append(c.code, i)
	return len(c.code) - 1
}

func (c *bcompiler) here() int32 { return int32(len(c.code)) }

func (c *bcompiler) compileStmts(ss []Stmt) {
	for _, s := range ss {
		mi, mf := c.tmpInt, c.tmpFlt
		c.compileStmt(s)
		c.tmpInt, c.tmpFlt = mi, mf
	}
}

func (c *bcompiler) compileStmt(s Stmt) {
	switch s := s.(type) {
	case SLoop:
		c.compileLoop(s)
	case SSet:
		// The target is defined before its right-hand side compiles, so an
		// accumulator may read itself.
		dst := c.defineFlt(s.Var)
		c.defFlt[s.Var] = true
		c.emitF(s.Val, dst)
	case SSetInt:
		dst := c.defineInt(s.Var)
		c.defInt[s.Var] = true
		c.emitInt(s.Val, dst)
	case SStore:
		c.checkBuf(s.Buf)
		ti := c.intOperand(s.Idx)
		tf := c.fltOperand(s.Val)
		c.emit(instr{op: opStore, a: int32(s.Buf), b: ti, c: tf})
	case SStoreInt:
		c.checkBuf(s.Buf)
		ti := c.intOperand(s.Idx)
		tv := c.intOperand(s.Val)
		c.emit(instr{op: opStoreInt, a: int32(s.Buf), b: ti, c: tv})
	default:
		c.fail("unknown statement %T", s)
	}
}

// compileLoop emits a LoopStride1 loop as row ops when its body allows
// (sweep.go), and anything else as a generic counted loop. The loop variable register ends at
// extent-1 after a non-empty loop, matching the interpreter (which assigns
// the variable at the top of each iteration and never increments past the
// last).
func (c *bcompiler) compileLoop(s SLoop) {
	bodyReads := c.reads.loops[c.loopSeq]
	c.loopSeq++
	if s.Flags&LoopStride1 != 0 {
		why, ok := c.trySweep(s, bodyReads)
		if ok {
			return
		}
		c.perElem = append(c.perElem, why)
	}
	ext := c.tempInt()
	c.emitInt(s.Extent, ext) // extent compiles before the var is defined
	v := c.defineInt(s.Var)
	c.defInt[s.Var] = true
	c.emit(instr{op: opIConst, a: v, b: 0})
	head := c.emit(instr{op: opLoopHead, a: v, b: ext})
	c.compileStmts(s.Body)
	c.emit(instr{op: opLoopTail, a: v, b: ext, c: int32(head + 1)})
	c.code[head].c = c.here()
}

// emitInt compiles an integer expression into ints[dst].
func (c *bcompiler) emitInt(e IntExpr, dst int32) {
	switch e := e.(type) {
	case IConst:
		c.emit(instr{op: opIConst, a: dst, b: int32(e)})
	case IDim:
		slot, ok := c.dimSlot[string(e)]
		if !ok {
			c.fail("unknown dim %q", string(e))
			return
		}
		c.emit(instr{op: opIDim, a: dst, b: int32(slot)})
	case IVar:
		c.emit(instr{op: opIMov, a: dst, b: c.intReg(string(e))})
	case ILoad:
		c.checkBuf(e.Buf)
		ti := c.intOperand(e.Idx)
		c.emit(instr{op: opILoad, a: dst, b: int32(e.Buf), c: ti})
	case IBin:
		c.emitIBin(e, dst)
	default:
		c.fail("unknown int expr %T", e)
	}
}

func (c *bcompiler) emitIBin(e IBin, dst int32) {
	switch e.Op {
	case IAdd:
		// r*L + j — the dominant index shape — is a single opIMulAdd.
		if m, ok := e.A.(IBin); ok && m.Op == IMul {
			rb := c.intOperand(m.A)
			rc := c.intOperand(m.B)
			rd := c.intOperand(e.B)
			c.emit(instr{op: opIMulAdd, a: dst, b: rb, c: rc, d: rd})
			return
		}
		if m, ok := e.B.(IBin); ok && m.Op == IMul {
			rb := c.intOperand(m.A)
			rc := c.intOperand(m.B)
			rd := c.intOperand(e.A)
			c.emit(instr{op: opIMulAdd, a: dst, b: rb, c: rc, d: rd})
			return
		}
		if k, ok := e.B.(IConst); ok {
			c.emit(instr{op: opIAddImm, a: dst, b: c.intOperand(e.A), c: int32(k)})
			return
		}
		if k, ok := e.A.(IConst); ok {
			c.emit(instr{op: opIAddImm, a: dst, b: c.intOperand(e.B), c: int32(k)})
			return
		}
	case IMul:
		if k, ok := e.B.(IConst); ok {
			c.emit(instr{op: opIMulImm, a: dst, b: c.intOperand(e.A), c: int32(k)})
			return
		}
		if k, ok := e.A.(IConst); ok {
			c.emit(instr{op: opIMulImm, a: dst, b: c.intOperand(e.B), c: int32(k)})
			return
		}
	}
	ra := c.intOperand(e.A)
	rb := c.intOperand(e.B)
	var op opcode
	switch e.Op {
	case IAdd:
		op = opIAdd
	case ISub:
		op = opISub
	case IMul:
		op = opIMul
	case IDiv:
		op = opIDiv
	case IMod:
		op = opIMod
	case IMin:
		op = opIMin
	default:
		c.fail("unknown int op %d", e.Op)
		return
	}
	c.emit(instr{op: op, a: dst, b: ra, c: rb})
}

// intOperand returns a register holding e's value: named variables are read
// in place; everything else evaluates into a fresh temp.
func (c *bcompiler) intOperand(e IntExpr) int32 {
	if v, ok := e.(IVar); ok {
		return c.intReg(string(v))
	}
	t := c.tempInt()
	c.emitInt(e, t)
	return t
}

// fltOperand mirrors intOperand for f32 expressions.
func (c *bcompiler) fltOperand(e Expr) int32 {
	if v, ok := e.(FLocal); ok {
		return c.fltReg(string(v))
	}
	t := c.tempFlt()
	c.emitF(e, t)
	return t
}

// emitF compiles an f32 expression into floats[dst].
func (c *bcompiler) emitF(e Expr, dst int32) {
	switch e := e.(type) {
	case FConst:
		c.emit(instr{op: opFConst, a: dst, fimm: float32(e)})
	case FLocal:
		c.emit(instr{op: opFMov, a: dst, b: c.fltReg(string(e))})
	case FLoad:
		c.checkBuf(e.Buf)
		ti := c.intOperand(e.Idx)
		c.emit(instr{op: opFLoad, a: dst, b: int32(e.Buf), c: ti})
	case FUn:
		fn, ok := unaryIndex[e.Fn]
		if !ok {
			c.fail("unknown unary fn %q", e.Fn)
			return
		}
		if cx, ok := e.X.(FConst); ok {
			// Constant folding.
			c.emit(instr{op: opFConst, a: dst, fimm: unaryTable[fn](float32(cx))})
			return
		}
		rx := c.fltOperand(e.X)
		c.emit(instr{op: opFUn, a: dst, b: int32(fn), c: rx})
	case FBin:
		fn, ok := binaryIndex[e.Fn]
		if !ok {
			c.fail("unknown binary fn %q", e.Fn)
			return
		}
		if ca, okA := e.A.(FConst); okA {
			if cb, okB := e.B.(FConst); okB {
				c.emit(instr{op: opFConst, a: dst, fimm: binaryTable[fn](float32(ca), float32(cb))})
				return
			}
		}
		ra := c.fltOperand(e.A)
		rb := c.fltOperand(e.B)
		switch fn {
		case bcAdd:
			c.emit(instr{op: opFAdd, a: dst, b: ra, c: rb})
		case bcSub:
			c.emit(instr{op: opFSub, a: dst, b: ra, c: rb})
		case bcMul:
			c.emit(instr{op: opFMul, a: dst, b: ra, c: rb})
		case bcDiv:
			c.emit(instr{op: opFDiv, a: dst, b: ra, c: rb})
		case bcMax:
			c.emit(instr{op: opFMax, a: dst, b: ra, c: rb})
		case bcMin:
			c.emit(instr{op: opFMin, a: dst, b: ra, c: rb})
		default:
			c.emit(instr{op: opFBin, a: dst, b: int32(fn), c: ra, d: rb})
		}
	case FCmp:
		var op opcode
		switch e.Op {
		case "lt":
			op = opFCmpLT
		case "le":
			op = opFCmpLE
		case "gt":
			op = opFCmpGT
		case "ge":
			op = opFCmpGE
		case "eq":
			op = opFCmpEQ
		case "ne":
			op = opFCmpNE
		default:
			c.fail("unknown compare op %q", e.Op)
			return
		}
		ra := c.fltOperand(e.A)
		rb := c.fltOperand(e.B)
		c.emit(instr{op: op, a: dst, b: ra, c: rb})
	case FSel:
		// Lazy branches, like the interpreter: only the taken side runs.
		rp := c.fltOperand(e.P)
		jz := c.emit(instr{op: opJumpIfZ, a: rp})
		c.emitF(e.A, dst)
		j := c.emit(instr{op: opJump})
		c.code[jz].b = c.here()
		c.emitF(e.B, dst)
		c.code[j].a = c.here()
	case FCastInt:
		rx := c.intOperand(e.X)
		c.emit(instr{op: opFCastInt, a: dst, b: rx})
	default:
		c.fail("unknown expr %T", e)
	}
}
