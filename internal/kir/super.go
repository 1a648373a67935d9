package kir

// Superinstruction matching: loops that walk buffers contiguously collapse
// into single whole-row bytecode ops, so the dispatch loop runs once per
// row instead of once per IR node per element. Matching is attempted only
// on loops the lowering flagged LoopStride1, but every match is verified
// structurally — after forward-substituting the loop body's local
// definitions, the body must reduce to one of a fixed set of store/reduce
// shapes whose indices are affine in the loop variable with unit (or
// unrolled) stride and loop-invariant bases. A wrong hint therefore falls
// back to generic bytecode; it can never change results.

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

// rowMatch describes one recognized whole-row pattern.
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
	scalar1    Expr    // FConst, loop-invariant FLocal, or loop-invariant FLoad
	scalar2    Expr
	accName    string // rkReduce / rkStoreRed only
	unroll     int    // lanes per iteration (1 = plain; 4 = vec4 bodies)
	// consumed lists the prefixed names absorbed by the match (substituted
	// locals and the loop variable); each must have no reads outside the
	// loop body, since the superinstruction never materializes them.
	consumed []string
	// bodyReads are the read counts within the original loop body, used
	// with bcompiler.globalReads for the outside-the-loop liveness check.
	bodyReads map[string]int
}

// trySuper matches and emits a superinstruction for the loop; it reports
// whether the loop was fully absorbed.
func (c *bcompiler) trySuper(s SLoop) bool {
	if s.Flags&LoopStride1 == 0 {
		return false
	}
	m, ok := c.matchRow(s)
	if !ok {
		return false
	}
	// Liveness: a superinstruction materializes neither the loop variable
	// nor the substituted locals, so any read of them outside this loop
	// body disqualifies the match.
	for _, name := range m.consumed {
		if c.globalReads[name] != m.bodyReads[name] {
			return false
		}
	}
	c.emitSuper(m, s)
	return true
}

// matchRow recognizes the loop body as one of the row patterns.
func (c *bcompiler) matchRow(s SLoop) (rowMatch, bool) {
	assigned := map[string]bool{}
	assignedIn(s.Body, assigned)
	if m, ok := c.matchGroup(s.Body, s.Var, 1, 0, true, assigned); ok {
		m.bodyReads = map[string]int{}
		countReadsStmts(s.Body, m.bodyReads)
		return m, true
	}
	if m, ok := c.matchUnrolled(s, assigned); ok {
		m.bodyReads = map[string]int{}
		countReadsStmts(s.Body, m.bodyReads)
		return m, true
	}
	return rowMatch{}, false
}

// matchUnrolled recognizes a body that is k structurally identical unrolled
// lanes — each [SSetInt v = base + var*k + u; ...] for u = 0..k-1 — and
// rewrites it as a single row over k*extent contiguous elements. This is
// the shape of codegen's vectorized elementwise variants.
func (c *bcompiler) matchUnrolled(s SLoop, assigned map[string]bool) (rowMatch, bool) {
	if len(s.Body) < 2 {
		return rowMatch{}, false
	}
	first, ok := s.Body[0].(SSetInt)
	if !ok {
		return rowMatch{}, false
	}
	_, k, off, ok := splitAffine(first.Val, s.Var, assigned)
	if !ok || k < 2 || off != 0 || len(s.Body)%k != 0 {
		return rowMatch{}, false
	}
	groupLen := len(s.Body) / k
	var m0 rowMatch
	for u := 0; u < k; u++ {
		group := s.Body[u*groupLen : (u+1)*groupLen]
		mu, ok := c.matchGroup(group, s.Var, k, u, false, assigned)
		if !ok || mu.kind == rkReduce || mu.kind == rkStoreRed {
			// Folding accumulator kinds across lanes would reorder the
			// reduction; only pure store rows de-unroll.
			return rowMatch{}, false
		}
		if u == 0 {
			m0 = mu
			continue
		}
		if !sameRow(m0, mu) {
			return rowMatch{}, false
		}
		m0.consumed = append(m0.consumed, mu.consumed...)
	}
	m0.unroll = k
	return m0, true
}

// sameRow reports whether two lane matches describe the same row operation
// (everything but lane offsets and consumed locals).
func sameRow(a, b rowMatch) bool {
	return a.kind == b.kind && a.un == b.un && a.bin == b.bin && a.bin2 == b.bin2 &&
		a.scalarLeft == b.scalarLeft && a.dstBuf == b.dstBuf &&
		a.xBuf == b.xBuf && a.yBuf == b.yBuf &&
		a.dstBase == b.dstBase && a.xBase == b.xBase && a.yBase == b.yBase &&
		a.xStride == b.xStride && a.scalar1 == b.scalar1 && a.scalar2 == b.scalar2
}

// matchGroup normalizes one lane (forward-substituting SSetInt/SSet
// definitions) and classifies the remaining statement. stride/lane fix the
// required affine shape of every index; foldOff folds constant offsets
// into the base (plain stride-1 matching) instead of requiring off == lane.
func (c *bcompiler) matchGroup(body []Stmt, v string, stride, lane int, foldOff bool, assigned map[string]bool) (rowMatch, bool) {
	ienv := map[string]IntExpr{}
	fenv := map[string]Expr{}
	var rest []Stmt
	consumed := []string{"i:" + v}
	for _, st := range body {
		switch st := st.(type) {
		case SSetInt:
			if _, dup := ienv[st.Var]; dup {
				return rowMatch{}, false
			}
			ienv[st.Var] = substInt(st.Val, ienv)
			consumed = append(consumed, "i:"+st.Var)
		case SSet:
			val := substExpr(st.Val, ienv, fenv)
			if readsLocal(val, st.Var) {
				// Self-referential assignment: a reduction accumulator.
				rest = append(rest, SSet{Var: st.Var, Val: val})
				continue
			}
			if _, dup := fenv[st.Var]; dup {
				return rowMatch{}, false
			}
			fenv[st.Var] = val
			consumed = append(consumed, "f:"+st.Var)
		case SStore:
			rest = append(rest, SStore{Buf: st.Buf, Idx: substInt(st.Idx, ienv), Val: substExpr(st.Val, ienv, fenv)})
		default:
			return rowMatch{}, false
		}
	}
	base := func(idx IntExpr) (IntExpr, bool) {
		b, s, o, ok := splitAffine(idx, v, assigned)
		if !ok || s != stride {
			return nil, false
		}
		if foldOff {
			return addConst(b, o), true
		}
		if o != lane {
			return nil, false
		}
		return b, true
	}
	ctx := rowCtx{v: v, assigned: assigned, base: base, strided: foldOff && stride == 1, dstBuf: -1}
	if len(rest) == 2 {
		// dst[i] = E; acc = bin2(acc, E) — a fused store+reduce sweep, the
		// shape of softmax's scale/max and exp/sum passes.
		st, okS := rest[0].(SStore)
		ac, okA := rest[1].(SSet)
		if !okS || !okA {
			return rowMatch{}, false
		}
		m, ok := c.matchStoreReduce(st, ac, ctx)
		if !ok {
			return rowMatch{}, false
		}
		m.unroll = 1
		m.consumed = consumed
		return m, true
	}
	if len(rest) != 1 {
		return rowMatch{}, false
	}
	switch st := rest[0].(type) {
	case SSet:
		// acc = bin(acc, load(x[i])) — one-pass reduction accumulate.
		fb, ok := st.Val.(FBin)
		if !ok {
			return rowMatch{}, false
		}
		if fl, ok := fb.A.(FLocal); !ok || string(fl) != st.Var {
			return rowMatch{}, false
		}
		ld, ok := fb.B.(FLoad)
		if !ok {
			return rowMatch{}, false
		}
		xb, ok := base(ld.Idx)
		if !ok {
			return rowMatch{}, false
		}
		fn, ok := binaryIndex[fb.Fn]
		if !ok {
			return rowMatch{}, false
		}
		return rowMatch{kind: rkReduce, bin: fn, xBuf: ld.Buf, xBase: xb,
			accName: st.Var, unroll: 1, consumed: consumed}, true
	case SStore:
		db, ok := base(st.Idx)
		if !ok {
			return rowMatch{}, false
		}
		ctx.dstBuf = st.Buf
		m, ok := c.classifyRowVal(st.Val, ctx)
		if !ok {
			return rowMatch{}, false
		}
		m.dstBuf = st.Buf
		m.dstBase = db
		m.unroll = 1
		m.consumed = consumed
		return m, true
	}
	return rowMatch{}, false
}

// matchStoreReduce recognizes the two-statement fused sweep
// dst[i] = E; acc = bin2(acc, E). The row op reuses the stored value for
// the fold, which is bit-identical to re-evaluating E because E is pure and
// must not read the destination buffer (enforced below: a store that lands
// on one of E's own load addresses would otherwise feed the fold the
// post-store value).
func (c *bcompiler) matchStoreReduce(st SStore, ac SSet, ctx rowCtx) (rowMatch, bool) {
	fb, ok := ac.Val.(FBin)
	if !ok {
		return rowMatch{}, false
	}
	if fl, ok := fb.A.(FLocal); !ok || string(fl) != ac.Var {
		return rowMatch{}, false
	}
	bin2, ok := binaryIndex[fb.Fn]
	if !ok || fb.B != st.Val {
		return rowMatch{}, false
	}
	db, ok := ctx.base(st.Idx)
	if !ok {
		return rowMatch{}, false
	}
	ctx.dstBuf = st.Buf
	ctx.strided = false
	inner, ok := c.classifyRowVal(st.Val, ctx)
	if !ok || inner.xBuf == st.Buf {
		return rowMatch{}, false
	}
	m := rowMatch{kind: rkStoreRed, bin2: bin2, dstBuf: st.Buf, dstBase: db,
		xBuf: inner.xBuf, xBase: inner.xBase, accName: ac.Var}
	switch inner.kind {
	case rkCopy:
		m.un, m.bin = bcIdUn, binNoneIdx
	case rkMap1:
		m.un, m.bin = inner.un, binNoneIdx
	case rkZipS:
		m.un, m.bin = bcIdUn, inner.bin
		m.scalar1, m.scalarLeft = inner.scalar1, inner.scalarLeft
	case rkMapZipS:
		m.un, m.bin = inner.un, inner.bin
		m.scalar1, m.scalarLeft = inner.scalar1, inner.scalarLeft
	default:
		return rowMatch{}, false
	}
	return m, true
}

// rowCtx carries everything classification needs about the enclosing loop:
// the loop variable, the names it assigns, the affine base resolver for
// unit-stride loads, the buffer the (single) store writes (-1 before it is
// known), and whether strided source loads may match (plain stride-1 loops
// only; unrolled lanes cannot fold symbolic strides).
type rowCtx struct {
	v        string
	assigned map[string]bool
	base     func(IntExpr) (IntExpr, bool)
	dstBuf   int
	strided  bool
}

// scalar reports whether e is loop-invariant and safe to hoist into a
// register read once per row: a constant, a local not assigned in the loop,
// or a load at an invariant index from a buffer the row never writes (the
// store could otherwise feed later iterations through the hoisted value).
func (ctx rowCtx) scalar(e Expr) bool {
	switch e := e.(type) {
	case FConst:
		return true
	case FLocal:
		return !ctx.assigned["f:"+string(e)]
	case FLoad:
		return e.Buf != ctx.dstBuf && invariantInt(e.Idx, ctx.v, ctx.assigned)
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
	switch val := val.(type) {
	case FConst, FLocal:
		// dst[i] = s over the whole row: a fill (pad's zero sweeps).
		if ctx.scalar(val) {
			return rowMatch{kind: rkFill, scalar1: val}, true
		}
		return rowMatch{}, false
	case FLoad:
		if buf, b, ok := ctx.load(val); ok {
			return rowMatch{kind: rkCopy, xBuf: buf, xBase: b}, true
		}
		if ctx.scalar(val) {
			return rowMatch{kind: rkFill, scalar1: val}, true
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
		if inner, ok := val.A.(FBin); ok && ctx.scalar(val.B) {
			if m, ok := c.classifyBinScalar(inner, ctx); ok {
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

// emitSuper emits the base/count setup and the row instruction.
func (c *bcompiler) emitSuper(m rowMatch, s SLoop) {
	// Element count: extent times the unroll factor.
	tn := c.tempInt()
	c.emitInt(s.Extent, tn)
	if m.unroll > 1 {
		c.emit(instr{op: opIMulImm, a: tn, b: tn, c: int32(m.unroll)})
	}
	if m.kind == rkReduce {
		tb := c.tempInt()
		c.emitInt(m.xBase, tb)
		acc := c.fltReg(m.accName)
		c.emit(instr{op: opRowReduce, a: acc, b: int32(m.xBuf), c: tb, d: tn, g: int32(m.bin)})
		c.supers++
		return
	}
	if m.kind == rkFill {
		bd := c.tempInt()
		c.emitInt(m.dstBase, bd)
		rs := c.fltOperand(m.scalar1)
		c.emit(instr{op: opRowFill, a: int32(m.dstBuf), c: rs, d: bd, e: tn})
		c.supers++
		return
	}
	if m.kind == rkGathS {
		bd := c.tempInt()
		bx := c.tempInt()
		ts := c.tempInt()
		c.emitInt(m.dstBase, bd)
		c.emitInt(m.xBase, bx)
		c.emitInt(m.xStride, ts)
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
	c.emitInt(m.dstBase, bd)
	c.emitInt(m.xBase, bx)
	if m.kind == rkZip || m.kind == rkMapZip {
		c.emitInt(m.yBase, by)
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
func splitAffine(e IntExpr, v string, assigned map[string]bool) (base IntExpr, stride, off int, ok bool) {
	switch e := e.(type) {
	case IConst:
		return IConst(0), 0, int(e), true
	case IDim:
		return e, 0, 0, true
	case IVar:
		if string(e) == v {
			return IConst(0), 1, 0, true
		}
		if assigned["i:"+string(e)] {
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
func splitAffineSym(e IntExpr, v string, assigned map[string]bool) (base, stride IntExpr, ok bool) {
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
func invariantInt(e IntExpr, v string, assigned map[string]bool) bool {
	switch e := e.(type) {
	case IConst, IDim:
		return true
	case IVar:
		return string(e) != v && !assigned["i:"+string(e)]
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

// substExpr forward-substitutes local definitions into an f32 expression.
// All expressions are pure, so duplication is semantically free.
func substExpr(e Expr, ienv map[string]IntExpr, fenv map[string]Expr) Expr {
	switch e := e.(type) {
	case FLocal:
		if r, ok := fenv[string(e)]; ok {
			return r
		}
		return e
	case FLoad:
		return FLoad{Buf: e.Buf, Idx: substInt(e.Idx, ienv)}
	case FUn:
		return FUn{Fn: e.Fn, X: substExpr(e.X, ienv, fenv)}
	case FBin:
		return FBin{Fn: e.Fn, A: substExpr(e.A, ienv, fenv), B: substExpr(e.B, ienv, fenv)}
	case FCmp:
		return FCmp{Op: e.Op, A: substExpr(e.A, ienv, fenv), B: substExpr(e.B, ienv, fenv)}
	case FSel:
		return FSel{P: substExpr(e.P, ienv, fenv), A: substExpr(e.A, ienv, fenv), B: substExpr(e.B, ienv, fenv)}
	case FCastInt:
		return FCastInt{X: substInt(e.X, ienv)}
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

// assignedIn collects prefixed names assigned anywhere in the statements.
func assignedIn(ss []Stmt, out map[string]bool) {
	for _, s := range ss {
		switch s := s.(type) {
		case SLoop:
			out["i:"+s.Var] = true
			assignedIn(s.Body, out)
		case SSetInt:
			out["i:"+s.Var] = true
		case SSet:
			out["f:"+s.Var] = true
		}
	}
}

// countReadsStmts tallies IVar ("i:name") and FLocal ("f:name") reads.
func countReadsStmts(ss []Stmt, m map[string]int) {
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

func countReadsInt(e IntExpr, m map[string]int) {
	switch e := e.(type) {
	case IVar:
		m["i:"+string(e)]++
	case IBin:
		countReadsInt(e.A, m)
		countReadsInt(e.B, m)
	case ILoad:
		countReadsInt(e.Idx, m)
	}
}

func countReadsExpr(e Expr, m map[string]int) {
	switch e := e.(type) {
	case FLocal:
		m["f:"+string(e)]++
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
