package kir

// Row ops: the whole-row bytecode vocabulary that contiguous sweeps compile
// to (sweep.go plans them), so the dispatch loop runs once per row op
// instead of once per IR node per element. This file holds the row-op
// shapes, the classifier that maps one row expression onto one of them, the
// emitter, and the affine index analysis both use.

type rowKind uint8

const (
	rowNone    rowKind = iota
	rkCopy             // dst[i] = src[i]
	rkMap1             // dst[i] = un(src[i])
	rkZip              // dst[i] = bin(x[i], y[i])
	rkMapZip           // dst[i] = un(bin(x[i], y[i]))
	rkZipS             // dst[i] = bin(src[i], s) or bin(s, src[i])
	rkMapZipS          // dst[i] = un(bin(src[i], s)) / un(bin(s, src[i]))
	rkZip2S            // dst[i] = bin2(bin1(src[i], s1), s2)
	rkFill             // dst[i] = s
	rkGathS            // dst[i] = un(src[xBase + i*xStride]) (strided load)
	rkReduce           // acc = bin(acc, src[i])
	rkStoreRed         // dst[i] = un(bin(src[i], s)); acc = bin2(acc, dst[i])
)

// binNoneIdx marks "no binary op" in rkStoreRed's packed function field.
const binNoneIdx = 0xff

// rowMatch describes one row op.
type rowMatch struct {
	kind       rowKind
	un         int // unary fn index (rkMap1, rkMapZipS)
	bin, bin2  int // binary fn indices
	scalarLeft bool
	dstBuf     int
	xBuf, yBuf int
	dstBase    IntExpr // loop-invariant element bases
	xBase      IntExpr
	yBase      IntExpr
	xStride    IntExpr // rkGathS only: loop-invariant source element stride
	scalar1    Expr    // loop-invariant scalar expression (see rowCtx.scalar)
	scalar2    Expr
	accName    string // rkReduce / rkStoreRed only
}

// rowCtx carries everything classification needs about the enclosing loop:
// the loop variable, the names it assigns, the buffer the row op writes (-1
// when none), and whether strided source loads may match (plain stride-1
// loops only; unrolled lanes cannot fold symbolic strides).
type rowCtx struct {
	v        string
	assigned map[local]bool
	dstBuf   int
	strided  bool
}

// base resolves a unit-stride index base + v + off to its loop-invariant
// element base (base + off).
func (ctx rowCtx) base(idx IntExpr) (IntExpr, bool) {
	b, st, off, ok := splitAffine(idx, ctx.v, ctx.assigned)
	if !ok || st != 1 {
		return nil, false
	}
	return addConst(b, off), true
}

// scalar reports whether e is loop-invariant and safe to hoist into a
// register evaluated once per row: a constant, a local not assigned in the
// loop, a load at an invariant index from a buffer the row never writes (the
// store could otherwise feed later iterations through the hoisted value), or
// pure unary/binary math over those (or an int cast of an invariant index).
func (ctx rowCtx) scalar(e Expr) bool {
	switch e := e.(type) {
	case FConst:
		return true
	case FLocal:
		return !ctx.assigned[fLocal(string(e))]
	case FLoad:
		return e.Buf != ctx.dstBuf && invariantInt(e.Idx, ctx.v, ctx.assigned)
	case FUn:
		return ctx.scalar(e.X)
	case FBin:
		return ctx.scalar(e.A) && ctx.scalar(e.B)
	case FCastInt:
		return invariantInt(e.X, ctx.v, ctx.assigned)
	}
	return false
}

func (ctx rowCtx) load(e Expr) (int, IntExpr, bool) {
	ld, ok := e.(FLoad)
	if !ok {
		return 0, nil, false
	}
	b, ok := ctx.base(ld.Idx)
	return ld.Buf, b, ok
}

// classifyRowVal matches the stored value against the supported row
// expression shapes.
func (c *bcompiler) classifyRowVal(val Expr, ctx rowCtx) (rowMatch, bool) {
	if ctx.scalar(val) {
		// dst[i] = s over the whole row: a fill (pad's zero sweeps).
		return rowMatch{kind: rkFill, scalar1: val}, true
	}
	switch val := val.(type) {
	case FLoad:
		if buf, b, ok := ctx.load(val); ok {
			return rowMatch{kind: rkCopy, xBuf: buf, xBase: b}, true
		}
		// Strided gather: base + i*stride with an invariant stride — the
		// inner sweep of a restructured transpose.
		if ctx.strided {
			if b, sx, ok := splitAffineSym(val.Idx, ctx.v, ctx.assigned); ok {
				return rowMatch{kind: rkGathS, un: bcIdUn, xBuf: val.Buf, xBase: b, xStride: sx}, true
			}
		}
		return rowMatch{}, false
	case FUn:
		un, ok := unaryIndex[val.Fn]
		if !ok {
			return rowMatch{}, false
		}
		if buf, b, ok := ctx.load(val.X); ok {
			return rowMatch{kind: rkMap1, un: un, xBuf: buf, xBase: b}, true
		}
		if ld, isLd := val.X.(FLoad); isLd && ctx.strided {
			if b, sx, ok := splitAffineSym(ld.Idx, ctx.v, ctx.assigned); ok {
				return rowMatch{kind: rkGathS, un: un, xBuf: ld.Buf, xBase: b, xStride: sx}, true
			}
		}
		// un(bin(...)) — the softmax exp(x - max) sweep, or a vector-vector
		// un(bin(x, y)) like gelu(x + bias_row).
		fb, ok := val.X.(FBin)
		if !ok {
			return rowMatch{}, false
		}
		if fn, ok := binaryIndex[fb.Fn]; ok {
			if xBuf, xb, ok := ctx.load(fb.A); ok {
				if yBuf, yb, ok := ctx.load(fb.B); ok {
					return rowMatch{kind: rkMapZip, un: un, bin: fn,
						xBuf: xBuf, xBase: xb, yBuf: yBuf, yBase: yb}, true
				}
			}
		}
		m, ok := c.classifyBinScalar(fb, ctx)
		if !ok {
			return rowMatch{}, false
		}
		m.kind = rkMapZipS
		m.un = un
		return m, true
	case FBin:
		fn, ok := binaryIndex[val.Fn]
		if !ok {
			return rowMatch{}, false
		}
		if xBuf, xb, ok := ctx.load(val.A); ok {
			if yBuf, yb, ok := ctx.load(val.B); ok {
				return rowMatch{kind: rkZip, bin: fn, xBuf: xBuf, xBase: xb, yBuf: yBuf, yBase: yb}, true
			}
		}
		// bin2(bin1(load, s1), s2) — e.g. the layernorm (x-mean)*rstd sweep.
		// The row op applies bin1 with the scalar on the right only.
		if inner, ok := val.A.(FBin); ok && ctx.scalar(val.B) {
			if m, ok := c.classifyBinScalar(inner, ctx); ok && !m.scalarLeft {
				m.kind = rkZip2S
				m.bin2 = fn
				m.scalar2 = val.B
				return m, true
			}
		}
		m, ok := c.classifyBinScalar(val, ctx)
		if !ok {
			return rowMatch{}, false
		}
		m.kind = rkZipS
		return m, true
	}
	return rowMatch{}, false
}

// classifyBinScalar matches bin(load, s) or bin(s, load) with a
// loop-invariant scalar. rkZip2S additionally requires the scalar on the
// right of the inner op, which this reports via scalarLeft.
func (c *bcompiler) classifyBinScalar(fb FBin, ctx rowCtx) (rowMatch, bool) {
	fn, ok := binaryIndex[fb.Fn]
	if !ok {
		return rowMatch{}, false
	}
	if buf, b, ok := ctx.load(fb.A); ok && ctx.scalar(fb.B) {
		return rowMatch{bin: fn, xBuf: buf, xBase: b, scalar1: fb.B, scalarLeft: false}, true
	}
	if buf, b, ok := ctx.load(fb.B); ok && ctx.scalar(fb.A) {
		return rowMatch{bin: fn, xBuf: buf, xBase: b, scalar1: fb.A, scalarLeft: true}, true
	}
	return rowMatch{}, false
}

// noOffset marks a row op whose bases need no per-chunk offset.
const noOffset = -1

// emitRowOp emits the base setup and the row instruction for m over tn
// elements. When off is a register, it is added to every base of a kernel
// buffer (not of a row temporary): the element offset of the current chunk
// of a chunked split sweep.
func (c *bcompiler) emitRowOp(m rowMatch, tn, off int32) {
	base := func(e IntExpr, buf int, r int32) {
		c.emitInt(e, r)
		if off != noOffset && buf < c.k.NumBuffers {
			c.emit(instr{op: opIAdd, a: r, b: r, c: off})
		}
	}
	if m.kind == rkReduce {
		tb := c.tempInt()
		base(m.xBase, m.xBuf, tb)
		acc := c.fltReg(m.accName)
		c.emit(instr{op: opRowReduce, a: acc, b: int32(m.xBuf), c: tb, d: tn, g: int32(m.bin)})
		c.supers++
		return
	}
	if m.kind == rkFill {
		bd := c.tempInt()
		base(m.dstBase, m.dstBuf, bd)
		rs := c.fltOperand(m.scalar1)
		c.emit(instr{op: opRowFill, a: int32(m.dstBuf), c: rs, d: bd, e: tn})
		c.supers++
		return
	}
	if m.kind == rkGathS {
		bd := c.tempInt()
		bx := c.tempInt()
		ts := c.tempInt()
		base(m.dstBase, m.dstBuf, bd)
		c.emitInt(m.xBase, bx)
		c.emitInt(m.xStride, ts)
		if off != noOffset {
			// The chunk starts off elements in: off*stride source elements.
			t := c.tempInt()
			c.emit(instr{op: opIMul, a: t, b: off, c: ts})
			c.emit(instr{op: opIAdd, a: bx, b: bx, c: t})
		}
		c.emit(instr{op: opRowGathS, a: int32(m.dstBuf), b: int32(m.xBuf), c: ts, d: bd, e: tn,
			g: int32(m.un)})
		c.supers++
		return
	}
	// Store patterns share the consecutive-base-register convention:
	// ints[d] = dst base, ints[d+1] = x base, (ints[d+2] = y base).
	bd := c.tempInt()
	bx := c.tempInt()
	var by int32
	if m.kind == rkZip || m.kind == rkMapZip {
		by = c.tempInt()
	}
	base(m.dstBase, m.dstBuf, bd)
	base(m.xBase, m.xBuf, bx)
	if m.kind == rkZip || m.kind == rkMapZip {
		base(m.yBase, m.yBuf, by)
	}
	switch m.kind {
	case rkCopy:
		if m.dstBuf == m.xBuf {
			// Same-buffer copies keep the scalar loop's ascending
			// element order (memmove semantics would differ on overlap).
			c.emit(instr{op: opRowMap1, a: int32(m.dstBuf), b: int32(m.xBuf), d: bd, e: tn,
				g: int32(unaryIndex["id"])})
		} else {
			c.emit(instr{op: opRowCopy, a: int32(m.dstBuf), b: int32(m.xBuf), d: bd, e: tn})
		}
	case rkMap1:
		c.emit(instr{op: opRowMap1, a: int32(m.dstBuf), b: int32(m.xBuf), d: bd, e: tn, g: int32(m.un)})
	case rkZip:
		c.emit(instr{op: opRowZip, a: int32(m.dstBuf), b: int32(m.xBuf), c: int32(m.yBuf),
			d: bd, e: tn, g: int32(m.bin)})
	case rkMapZip:
		c.emit(instr{op: opRowMapZip, a: int32(m.dstBuf), b: int32(m.xBuf), c: int32(m.yBuf),
			d: bd, e: tn, g: int32(m.bin) | int32(m.un)<<8})
	case rkZipS:
		op := opRowZipSR
		if m.scalarLeft {
			op = opRowZipSL
		}
		rs := c.fltOperand(m.scalar1)
		c.emit(instr{op: op, a: int32(m.dstBuf), b: int32(m.xBuf), c: rs, d: bd, e: tn, g: int32(m.bin)})
	case rkMapZipS:
		op := opRowMapZipSR
		if m.scalarLeft {
			op = opRowMapZipSL
		}
		rs := c.fltOperand(m.scalar1)
		c.emit(instr{op: op, a: int32(m.dstBuf), b: int32(m.xBuf), c: rs, d: bd, e: tn,
			g: int32(m.bin) | int32(m.un)<<8})
	case rkZip2S:
		rs1 := c.tempFlt()
		rs2 := c.tempFlt()
		c.emitF(m.scalar1, rs1)
		c.emitF(m.scalar2, rs2)
		c.emit(instr{op: opRowZip2S, a: int32(m.dstBuf), b: int32(m.xBuf), c: rs1, d: bd, e: tn,
			g: int32(m.bin) | int32(m.bin2)<<8})
	case rkStoreRed:
		acc := c.fltReg(m.accName)
		var rs int32
		if m.bin != binNoneIdx {
			rs = c.fltOperand(m.scalar1)
		}
		op := opRowFRedSR
		if m.scalarLeft {
			op = opRowFRedSL
		}
		c.emit(instr{op: op, a: int32(m.dstBuf), b: int32(m.xBuf),
			c: rs | acc<<16, d: bd, e: tn,
			g: int32(m.bin) | int32(m.un)<<8 | int32(m.bin2)<<16})
	}
	c.supers++
}

// splitAffine decomposes e as base + stride*v + off with a v-invariant base
// and constant off. Invariance rejects names assigned inside the loop body
// and all buffer loads (the loop may write the buffer being read).
func splitAffine(e IntExpr, v string, assigned map[local]bool) (base IntExpr, stride, off int, ok bool) {
	switch e := e.(type) {
	case IConst:
		return IConst(0), 0, int(e), true
	case IDim:
		return e, 0, 0, true
	case IVar:
		if string(e) == v {
			return IConst(0), 1, 0, true
		}
		if assigned[iLocal(string(e))] {
			return nil, 0, 0, false
		}
		return e, 0, 0, true
	case IBin:
		switch e.Op {
		case IAdd:
			ba, sa, oa, okA := splitAffine(e.A, v, assigned)
			bb, sb, ob, okB := splitAffine(e.B, v, assigned)
			if !okA || !okB {
				return nil, 0, 0, false
			}
			return Add(ba, bb), sa + sb, oa + ob, true
		case ISub:
			ba, sa, oa, okA := splitAffine(e.A, v, assigned)
			bb, sb, ob, okB := splitAffine(e.B, v, assigned)
			if !okA || !okB {
				return nil, 0, 0, false
			}
			return subExpr(ba, bb), sa - sb, oa - ob, true
		case IMul:
			if k, isC := e.A.(IConst); isC {
				b, s, o, okB := splitAffine(e.B, v, assigned)
				if !okB {
					return nil, 0, 0, false
				}
				return Mul(b, k), s * int(k), o * int(k), true
			}
			if k, isC := e.B.(IConst); isC {
				b, s, o, okA := splitAffine(e.A, v, assigned)
				if !okA {
					return nil, 0, 0, false
				}
				return Mul(b, k), s * int(k), o * int(k), true
			}
		}
		if invariantInt(e, v, assigned) {
			return e, 0, 0, true
		}
		return nil, 0, 0, false
	}
	return nil, 0, 0, false
}

// splitAffineSym decomposes e as base + stride*v where both base and stride
// are loop-invariant *expressions* — the shape of a restructured transpose's
// inner sweep, whose source stride is a symbolic pitch rather than a
// constant. splitAffine stays the fast path for unit/constant strides.
func splitAffineSym(e IntExpr, v string, assigned map[local]bool) (base, stride IntExpr, ok bool) {
	switch e := e.(type) {
	case IVar:
		if string(e) == v {
			return IConst(0), IConst(1), true
		}
	case IBin:
		switch e.Op {
		case IAdd:
			ba, sa, okA := splitAffineSym(e.A, v, assigned)
			bb, sb, okB := splitAffineSym(e.B, v, assigned)
			if okA && okB {
				return addIE(ba, bb), addIE(sa, sb), true
			}
			return nil, nil, false
		case ISub:
			ba, sa, okA := splitAffineSym(e.A, v, assigned)
			bb, sb, okB := splitAffineSym(e.B, v, assigned)
			if okA && okB {
				return subExpr(ba, bb), subExpr(sa, sb), true
			}
			return nil, nil, false
		case IMul:
			if invariantInt(e.A, v, assigned) {
				if b, s, okB := splitAffineSym(e.B, v, assigned); okB {
					return mulIE(e.A, b), mulIE(e.A, s), true
				}
				return nil, nil, false
			}
			if invariantInt(e.B, v, assigned) {
				if b, s, okA := splitAffineSym(e.A, v, assigned); okA {
					return mulIE(b, e.B), mulIE(s, e.B), true
				}
			}
			return nil, nil, false
		}
	}
	if invariantInt(e, v, assigned) {
		return e, IConst(0), true
	}
	return nil, nil, false
}

// addIE / mulIE build folded sums and products for splitAffineSym bases.
func addIE(a, b IntExpr) IntExpr {
	ca, aok := a.(IConst)
	cb, bok := b.(IConst)
	if aok && bok {
		return IConst(int(ca) + int(cb))
	}
	if aok && ca == 0 {
		return b
	}
	if bok && cb == 0 {
		return a
	}
	return Add(a, b)
}

func mulIE(a, b IntExpr) IntExpr {
	ca, aok := a.(IConst)
	cb, bok := b.(IConst)
	if aok && bok {
		return IConst(int(ca) * int(cb))
	}
	if aok {
		if ca == 0 {
			return IConst(0)
		}
		if ca == 1 {
			return b
		}
	}
	if bok {
		if cb == 0 {
			return IConst(0)
		}
		if cb == 1 {
			return a
		}
	}
	return Mul(a, b)
}

// invariantInt reports whether e is loop-invariant: it references neither
// the loop variable, nor any name assigned in the loop body, nor any buffer.
func invariantInt(e IntExpr, v string, assigned map[local]bool) bool {
	switch e := e.(type) {
	case IConst, IDim:
		return true
	case IVar:
		return string(e) != v && !assigned[iLocal(string(e))]
	case IBin:
		return invariantInt(e.A, v, assigned) && invariantInt(e.B, v, assigned)
	default: // ILoad: never hoisted out of the loop
		return false
	}
}

// addConst folds a constant offset into a base expression.
func addConst(b IntExpr, o int) IntExpr {
	if o == 0 {
		return b
	}
	return Add(b, IConst(o))
}

// subExpr builds a-b with light folding (splitAffine keeps bases small).
func subExpr(a, b IntExpr) IntExpr {
	if cb, ok := b.(IConst); ok {
		if ca, ok := a.(IConst); ok {
			return IConst(int(ca) - int(cb))
		}
		if cb == 0 {
			return a
		}
	}
	return IBin{Op: ISub, A: a, B: b}
}

// substInt forward-substitutes integer local definitions.
func substInt(e IntExpr, ienv map[string]IntExpr) IntExpr {
	switch e := e.(type) {
	case IVar:
		if r, ok := ienv[string(e)]; ok {
			return r
		}
		return e
	case IBin:
		return IBin{Op: e.Op, A: substInt(e.A, ienv), B: substInt(e.B, ienv)}
	case ILoad:
		return ILoad{Buf: e.Buf, Idx: substInt(e.Idx, ienv)}
	default:
		return e
	}
}

// readsLocal reports whether e reads the named f32 local.
func readsLocal(e Expr, name string) bool {
	switch e := e.(type) {
	case FLocal:
		return string(e) == name
	case FUn:
		return readsLocal(e.X, name)
	case FBin:
		return readsLocal(e.A, name) || readsLocal(e.B, name)
	case FCmp:
		return readsLocal(e.A, name) || readsLocal(e.B, name)
	case FSel:
		return readsLocal(e.P, name) || readsLocal(e.A, name) || readsLocal(e.B, name)
	default:
		return false
	}
}

// local names an int (IVar, loop variable) or f32 (FLocal) local: the two
// namespaces are separate. A struct key, unlike a prefixed string, costs no
// allocation per map access.
type local struct {
	flt  bool
	name string
}

func iLocal(name string) local { return local{name: name} }
func fLocal(name string) local { return local{flt: true, name: name} }

// assignedIn collects the locals assigned anywhere in the statements.
func assignedIn(ss []Stmt, out map[local]bool) {
	for _, s := range ss {
		switch s := s.(type) {
		case SLoop:
			out[iLocal(s.Var)] = true
			assignedIn(s.Body, out)
		case SSetInt:
			out[iLocal(s.Var)] = true
		case SSet:
			out[fLocal(s.Var)] = true
		}
	}
}

// countReadsStmts tallies IVar and FLocal reads.
func countReadsStmts(ss []Stmt, m map[local]int) {
	for _, s := range ss {
		switch s := s.(type) {
		case SLoop:
			countReadsInt(s.Extent, m)
			countReadsStmts(s.Body, m)
		case SSet:
			countReadsExpr(s.Val, m)
		case SSetInt:
			countReadsInt(s.Val, m)
		case SStore:
			countReadsInt(s.Idx, m)
			countReadsExpr(s.Val, m)
		case SStoreInt:
			countReadsInt(s.Idx, m)
			countReadsInt(s.Val, m)
		}
	}
}

func countReadsInt(e IntExpr, m map[local]int) {
	switch e := e.(type) {
	case IVar:
		m[iLocal(string(e))]++
	case IBin:
		countReadsInt(e.A, m)
		countReadsInt(e.B, m)
	case ILoad:
		countReadsInt(e.Idx, m)
	}
}

func countReadsExpr(e Expr, m map[local]int) {
	switch e := e.(type) {
	case FLocal:
		m[fLocal(string(e))]++
	case FLoad:
		countReadsInt(e.Idx, m)
	case FUn:
		countReadsExpr(e.X, m)
	case FBin:
		countReadsExpr(e.A, m)
		countReadsExpr(e.B, m)
	case FCmp:
		countReadsExpr(e.A, m)
		countReadsExpr(e.B, m)
	case FSel:
		countReadsExpr(e.P, m)
		countReadsExpr(e.A, m)
		countReadsExpr(e.B, m)
	case FCastInt:
		countReadsInt(e.X, m)
	}
}
