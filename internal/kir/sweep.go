package kir

// Sweep compilation: a LoopStride1 loop compiles to a sequence of row ops
// (super.go), one or more per statement of its body, with intermediate
// values held in row temporaries, so the dispatch loop runs per row op
// rather than per element. A layernorm sweep such as
//
//	for j { t = x[j] - mean; out[j] = t; acc = acc + t*t }
//
// becomes row.zipsr into out, row.zip of out with itself into a temporary,
// and row.reduce of that temporary into acc; a softmax sweep
// out[j] = exp(x[j] - m); acc = acc + out[j] becomes the single fused
// row.fredsr. Every element goes through the same f32 operations as in the
// per-element loop and every fold runs in ascending j, so results are
// bit-identical.
//
// The loop stays per-element code, and PerElementSweeps reports the rule,
// when:
//   - the body contains control flow (a nested loop or a select) or an int
//     store;
//   - a buffer is stored twice, or is both loaded and stored by a body that
//     needs more than one row op (one row op walks its elements in the
//     loop's order, so it may read what it writes);
//   - a store index is not affine with unit stride in the loop variable,
//     or a load index neither that nor a strided gather, or codegen's
//     unrolled lanes differ beyond their offsets;
//   - an f32 local is assigned twice, read before its definition, or (as an
//     accumulator) read anywhere but its own left fold;
//   - a local of the body, or the loop variable, is read after the loop;
//   - an expression has no row form (compares, int casts of the loop
//     variable).
//
// Row ops assume that distinct buffer indices never alias: a kernel's
// buffers are distinct allocations (exec hands every slot its own buffer),
// so a row written through one index is never read through another.

// rowRef names a row: a buffer and a loop-invariant element base; element j
// of the sweep lives at base + j.
type rowRef struct {
	buf  int
	base IntExpr
}

// load reads the row at the sweep's element v.
func (r rowRef) load(v string) Expr { return FLoad{Buf: r.buf, Idx: Add(r.base, IVar(v))} }

// splitChunk bounds row temporaries: a sweep that needs temporaries and
// whose element count is not a constant no larger than this runs in chunks
// of splitChunk elements, so a flat loop over a whole tensor never grows a
// tensor-sized temporary.
const splitChunk = 512

// sweep plans the row ops of one loop.
type sweep struct {
	c        *bcompiler
	v        string         // the loop variable; counts elements in canonical statements
	assigned map[local]bool // locals assigned in the loop body
	plain    bool           // not unrolled: strided gathers may match
	nTmp     int
	ops      []rowMatch
	// rows lists each planned expression with the row holding its values,
	// so a value the body spells out twice is computed once.
	rows []plannedRow
}

// plannedRow is an expression some row op of the sweep has computed.
type plannedRow struct {
	e Expr
	r rowRef
}

// planned returns the row already holding e's values, if any.
func (sw *sweep) planned(e Expr) (rowRef, bool) {
	for _, p := range sw.rows {
		if p.e == e {
			return p.r, true
		}
	}
	return rowRef{}, false
}

// readIndex is the kernel-wide census of local reads the sweep planner
// consults, built in one walk per kernel: every IVar and FLocal read is
// numbered in pre-order, each local keeps the span from its first to its
// last read, and each loop (in the pre-order the bytecode compiler visits
// loops) keeps the span of the reads inside its body.
type readIndex struct {
	locals map[local]span
	loops  []span
	n      int32
}

// span is a half-open range [lo, hi) of read numbers.
type span struct{ lo, hi int32 }

func indexReads(ss []Stmt) readIndex {
	r := readIndex{locals: map[local]span{}}
	r.stmts(ss)
	return r
}

// onlyIn reports whether every read of name lies inside body.
func (r *readIndex) onlyIn(name local, body span) bool {
	s, ok := r.locals[name]
	return !ok || s.lo >= body.lo && s.hi <= body.hi
}

func (r *readIndex) read(name local) {
	s, ok := r.locals[name]
	if !ok {
		s.lo = r.n
	}
	s.hi = r.n + 1
	r.locals[name] = s
	r.n++
}

func (r *readIndex) stmts(ss []Stmt) {
	for _, s := range ss {
		switch s := s.(type) {
		case SLoop:
			r.intExpr(s.Extent)
			i := len(r.loops)
			r.loops = append(r.loops, span{lo: r.n})
			r.stmts(s.Body)
			r.loops[i].hi = r.n
		case SSet:
			r.expr(s.Val)
		case SSetInt:
			r.intExpr(s.Val)
		case SStore:
			r.intExpr(s.Idx)
			r.expr(s.Val)
		case SStoreInt:
			r.intExpr(s.Idx)
			r.intExpr(s.Val)
		}
	}
}

func (r *readIndex) intExpr(e IntExpr) {
	switch e := e.(type) {
	case IVar:
		r.read(iLocal(string(e)))
	case IBin:
		r.intExpr(e.A)
		r.intExpr(e.B)
	case ILoad:
		r.intExpr(e.Idx)
	}
}

func (r *readIndex) expr(e Expr) {
	switch e := e.(type) {
	case FLocal:
		r.read(fLocal(string(e)))
	case FLoad:
		r.intExpr(e.Idx)
	case FUn:
		r.expr(e.X)
	case FBin:
		r.expr(e.A)
		r.expr(e.B)
	case FCmp:
		r.expr(e.A)
		r.expr(e.B)
	case FSel:
		r.expr(e.P)
		r.expr(e.A)
		r.expr(e.B)
	case FCastInt:
		r.intExpr(e.X)
	}
}

// trySweep plans and emits a LoopStride1 loop as row ops; bodyReads is the
// span of the loop body's reads. On failure nothing is emitted and the
// rejecting rule is returned.
func (c *bcompiler) trySweep(s SLoop, bodyReads span) (string, bool) {
	assigned := map[local]bool{}
	assignedIn(s.Body, assigned)
	body, consumed, unroll, why := canonSweep(s, assigned)
	if why != "" {
		return why, false
	}
	// The row ops materialize neither the loop variable nor the body's
	// locals (accumulators aside), so nothing after the loop may read them.
	for _, name := range consumed {
		if !c.reads.onlyIn(name, bodyReads) {
			return "local read after the loop", false
		}
	}
	sw := &sweep{c: c, v: s.Var, assigned: assigned, plain: unroll == 1}
	if why := sw.plan(body); why != "" {
		return why, false
	}
	c.emitSweep(sw, s, unroll)
	return "", true
}

// canonSweep returns the loop body in canonical form: int locals
// forward-substituted, and every unit-stride index rewritten as base + v,
// where v (the loop variable's name) counts the elements of the whole
// sweep. A body of k unrolled lanes (codegen's vectorized variants: each
// lane opens with SSetInt lane = v*k + u) is accepted when every lane
// canonicalizes to the same statements; the sweep then covers k*extent
// elements. consumed lists the prefixed names the row ops never
// materialize.
func canonSweep(s SLoop, assigned map[local]bool) (body []Stmt, consumed []local, unroll int, why string) {
	k := 1
	if len(s.Body) > 1 {
		if first, ok := s.Body[0].(SSetInt); ok {
			if _, stride, off, ok := splitAffine(first.Val, s.Var, assigned); ok && stride > 1 && off == 0 && len(s.Body)%stride == 0 {
				k = stride
			}
		}
	}
	consumed = []local{iLocal(s.Var)}
	if k == 1 {
		body, names, why := canonLane(s.Body, s.Var, 1, 0, assigned)
		return body, append(consumed, names...), 1, why
	}
	n := len(s.Body) / k
	for u := 0; u < k; u++ {
		lane, names, why := canonLane(s.Body[u*n:(u+1)*n], s.Var, k, u, assigned)
		if why != "" {
			return nil, nil, 0, why
		}
		if u == 0 {
			body = lane
		} else if !sameStmts(lane, body) {
			return nil, nil, 0, "unrolled lanes differ"
		}
		consumed = append(consumed, names...)
	}
	return body, consumed, k, ""
}

// sameStmts reports whether two canonical statement lists are identical
// (statements and expressions are comparable values).
func sameStmts(a, b []Stmt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// canonLane canonicalizes one lane. An index must be loop-invariant or
// base + stride*v + off with off equal to the lane (stride 1: any constant
// off, folded into the base); in a plain loop a load may also be a strided
// gather, base + v*s with an invariant s, which stays as written.
func canonLane(body []Stmt, v string, stride, lane int, assigned map[local]bool) ([]Stmt, []local, string) {
	ienv := map[string]IntExpr{}
	var consumed []local
	why := ""
	reject := func(rule string) {
		if why == "" {
			why = rule
		}
	}
	// index returns the canonical index and whether it is a row (unit
	// stride) index.
	index := func(e IntExpr, load bool) (IntExpr, bool) {
		e = substInt(e, ienv)
		b, st, off, ok := splitAffine(e, v, assigned)
		switch {
		case ok && st == 0:
			return e, false
		case ok && st == stride && stride == 1:
			return Add(addConst(b, off), IVar(v)), true
		case ok && st == stride && off == lane:
			return Add(b, IVar(v)), true
		}
		if load && stride == 1 {
			if _, _, ok := splitAffineSym(e, v, assigned); ok {
				return e, false
			}
		}
		reject("index not unit-stride affine")
		return e, false
	}
	var expr func(Expr) Expr
	expr = func(e Expr) Expr {
		switch e := e.(type) {
		case FLoad:
			idx, _ := index(e.Idx, true)
			return FLoad{Buf: e.Buf, Idx: idx}
		case FUn:
			return FUn{Fn: e.Fn, X: expr(e.X)}
		case FBin:
			return FBin{Fn: e.Fn, A: expr(e.A), B: expr(e.B)}
		case FCmp:
			return FCmp{Op: e.Op, A: expr(e.A), B: expr(e.B)}
		case FSel:
			reject("control flow")
		case FCastInt:
			return FCastInt{X: substInt(e.X, ienv)}
		}
		return e
	}
	var out []Stmt
	for _, st := range body {
		switch st := st.(type) {
		case SSetInt:
			if _, dup := ienv[st.Var]; dup {
				return nil, nil, "int local assigned twice"
			}
			ienv[st.Var] = substInt(st.Val, ienv)
			consumed = append(consumed, iLocal(st.Var))
		case SSet:
			if !readsLocal(st.Val, st.Var) {
				consumed = append(consumed, fLocal(st.Var))
			}
			out = append(out, SSet{Var: st.Var, Val: expr(st.Val)})
		case SStore:
			idx, row := index(st.Idx, false)
			if !row {
				reject("index not unit-stride affine")
			}
			out = append(out, SStore{Buf: st.Buf, Idx: idx, Val: expr(st.Val)})
		case SLoop:
			return nil, nil, "control flow"
		default:
			return nil, nil, "int store"
		}
	}
	return out, consumed, why
}

// ctx is the classification context for a row op writing buffer dst.
func (sw *sweep) ctx(dst int) rowCtx {
	return rowCtx{v: sw.v, assigned: sw.assigned, dstBuf: dst, strided: sw.plain}
}

// plan turns the canonical statements into row ops. Locals read more than
// once, or stored, get a row of their own: the destination of their first
// store, else a temporary. Other locals are substituted into their single
// reader.
func (sw *sweep) plan(body []Stmt) string {
	nb := sw.c.k.NumBuffers
	stored := map[int]bool{}
	loaded := map[int]bool{}
	home := map[string]rowRef{}
	ctx := sw.ctx(-1)
	for _, st := range body {
		switch st := st.(type) {
		case SSet:
			loadedBufs(st.Val, loaded)
		case SStore:
			if stored[st.Buf] {
				return "buffer stored twice"
			}
			stored[st.Buf] = true
			loadedBufs(st.Val, loaded)
			if l, ok := st.Val.(FLocal); ok {
				if _, seen := home[string(l)]; !seen {
					b, _ := ctx.base(st.Idx)
					home[string(l)] = rowRef{buf: st.Buf, base: b}
				}
			}
		}
	}
	conflict := false
	for b := range loaded {
		conflict = conflict || stored[b]
		if b < 0 || b >= nb {
			return "buffer out of range"
		}
	}
	for b := range stored {
		if b < 0 || b >= nb {
			return "buffer out of range"
		}
	}
	reads := map[local]int{}
	countReadsStmts(body, reads)
	env := map[string]Expr{}
	defined := map[string]bool{}
	inPlace := map[string]bool{} // locals computed straight into their store's row
	for _, st := range body {
		switch st := st.(type) {
		case SSet:
			if defined[st.Var] {
				return "f32 local assigned twice"
			}
			defined[st.Var] = true
			if readsLocal(st.Val, st.Var) {
				if why := sw.fold(st, reads, env); why != "" {
					return why
				}
				continue
			}
			val, ok := sw.subst(st.Val, env)
			if !ok {
				return "local read before its definition"
			}
			if h, stored := home[st.Var]; stored || reads[fLocal(st.Var)] > 1 {
				if !stored {
					h = sw.temp()
				}
				if !sw.into(h, val) {
					return "no row form"
				}
				inPlace[st.Var] = stored
				val = h.load(sw.v)
			}
			env[st.Var] = val
		case SStore:
			b, _ := ctx.base(st.Idx)
			if l, ok := st.Val.(FLocal); ok && inPlace[string(l)] && home[string(l)].buf == st.Buf {
				continue // the local's row was computed in place
			}
			val, ok := sw.subst(st.Val, env)
			if !ok {
				return "local read before its definition"
			}
			if !sw.into(rowRef{buf: st.Buf, base: b}, val) {
				return "no row form"
			}
		}
	}
	if conflict && len(sw.ops) > 1 {
		return "load and store of one buffer"
	}
	sw.ops = fuseStoreReduce(sw.ops)
	return ""
}

// fold plans acc = bin(acc, E) as a row.reduce over E's row. The
// accumulator must be defined before the loop and read nowhere else in the
// body: the row op only produces its final value.
func (sw *sweep) fold(st SSet, reads map[local]int, env map[string]Expr) string {
	fb, ok := st.Val.(FBin)
	if !ok || fb.A != FLocal(st.Var) || readsLocal(fb.B, st.Var) || reads[fLocal(st.Var)] != 1 {
		return "accumulator read in the sweep"
	}
	if !sw.c.defFlt[st.Var] {
		return "accumulator undefined before the loop"
	}
	fn, ok := binaryIndex[fb.Fn]
	if !ok {
		return "no row form"
	}
	val, ok := sw.subst(fb.B, env)
	if !ok {
		return "local read before its definition"
	}
	src, ok := sw.row(val)
	if !ok {
		return "no row form"
	}
	sw.ops = append(sw.ops, rowMatch{kind: rkReduce, bin: fn, xBuf: src.buf, xBase: src.base, accName: st.Var})
	return ""
}

// subst replaces the body's locals by their rows or expressions. A local
// assigned in the loop but not yet defined is a loop-carried read.
func (sw *sweep) subst(e Expr, env map[string]Expr) (Expr, bool) {
	switch e := e.(type) {
	case FLocal:
		if r, ok := env[string(e)]; ok {
			return r, true
		}
		return e, !sw.assigned[fLocal(string(e))]
	case FUn:
		x, ok := sw.subst(e.X, env)
		return FUn{Fn: e.Fn, X: x}, ok
	case FBin:
		a, okA := sw.subst(e.A, env)
		b, okB := sw.subst(e.B, env)
		return FBin{Fn: e.Fn, A: a, B: b}, okA && okB
	case FCmp:
		a, okA := sw.subst(e.A, env)
		b, okB := sw.subst(e.B, env)
		return FCmp{Op: e.Op, A: a, B: b}, okA && okB
	}
	return e, true
}

// temp allocates a row temporary: buffer indices after the kernel's own.
func (sw *sweep) temp() rowRef {
	t := rowRef{buf: sw.c.k.NumBuffers + sw.nTmp, base: IConst(0)}
	sw.nTmp++
	return t
}

// into plans dst = e: e's operands are reduced to rows and scalars (deeper
// subexpressions go to temporaries first), then one row op writes dst.
func (sw *sweep) into(dst rowRef, e Expr) bool {
	src := e
	r, done := sw.planned(e)
	if done {
		e = r.load(sw.v)
	}
	e, ok := sw.tile(e)
	if !ok {
		return false
	}
	m, ok := sw.c.classifyRowVal(e, sw.ctx(dst.buf))
	if !ok {
		return false
	}
	m.dstBuf, m.dstBase = dst.buf, dst.base
	sw.ops = append(sw.ops, m)
	if !done {
		sw.rows = append(sw.rows, plannedRow{e: src, r: dst})
	}
	return true
}

// tile rewrites e into the operand shape of one row op, keeping the fused
// shapes the VM has (un∘bin over rows or a scalar, bin2∘bin1 over a row and
// two scalars) and materializing anything deeper.
func (sw *sweep) tile(e Expr) (Expr, bool) {
	if sw.leaf(e) {
		return e, true
	}
	ctx := sw.ctx(-1)
	switch e := e.(type) {
	case FLoad:
		return e, true // a strided gather: classifyRowVal decides
	case FUn:
		if fb, ok := e.X.(FBin); ok {
			a, okA := sw.operand(fb.A)
			b, okB := sw.operand(fb.B)
			return FUn{Fn: e.Fn, X: FBin{Fn: fb.Fn, A: a, B: b}}, okA && okB
		}
		if ld, ok := e.X.(FLoad); ok {
			return FUn{Fn: e.Fn, X: ld}, true // a mapped gather
		}
		x, ok := sw.operand(e.X)
		return FUn{Fn: e.Fn, X: x}, ok
	case FBin:
		if in, ok := e.A.(FBin); ok && ctx.scalar(e.B) && ctx.scalar(in.B) && !ctx.scalar(in.A) {
			x, ok := sw.operand(in.A)
			return FBin{Fn: e.Fn, A: FBin{Fn: in.Fn, A: x, B: in.B}, B: e.B}, ok
		}
		a, okA := sw.operand(e.A)
		b, okB := sw.operand(e.B)
		return FBin{Fn: e.Fn, A: a, B: b}, okA && okB
	}
	return nil, false
}

// leaf reports whether e is a row load or a loop-invariant scalar.
func (sw *sweep) leaf(e Expr) bool {
	ctx := sw.ctx(-1)
	if ld, ok := e.(FLoad); ok {
		if _, ok := ctx.base(ld.Idx); ok {
			return true
		}
	}
	return ctx.scalar(e)
}

// operand returns e if it is a leaf, else a load of the row holding e.
func (sw *sweep) operand(e Expr) (Expr, bool) {
	if sw.leaf(e) {
		return e, true
	}
	r, ok := sw.row(e)
	return r.load(sw.v), ok
}

// row returns a row holding e: e's own row when it is a row load, one
// computed earlier, else a new temporary (a scalar e fills one).
func (sw *sweep) row(e Expr) (rowRef, bool) {
	if ld, ok := e.(FLoad); ok {
		if b, ok := sw.ctx(-1).base(ld.Idx); ok {
			return rowRef{buf: ld.Buf, base: b}, true
		}
	}
	if r, ok := sw.planned(e); ok {
		return r, true
	}
	t := sw.temp()
	return t, sw.into(t, e)
}

// fuseStoreReduce merges each row.reduce into the op that wrote its source
// row (or, for a copy, read it), when that op has a fused store+reduce
// form: the fold then runs over the stored values in the writer's sweep, in
// the same order. Moving the fold earlier is safe because every row is
// written once and the accumulator is read by no other op of the sweep. A
// writer that reads its own destination (one in-place op) keeps its reduce
// separate.
func fuseStoreReduce(ops []rowMatch) []rowMatch {
	var out []rowMatch
	for _, r := range ops {
		if r.kind == rkReduce {
			feeds := func(w rowMatch) bool {
				return w.kind != rkReduce && w.dstBuf == r.xBuf && w.dstBase == r.xBase ||
					w.kind == rkCopy && w.xBuf == r.xBuf && w.xBase == r.xBase
			}
			w := len(out) - 1
			for w >= 0 && !feeds(out[w]) {
				w--
			}
			if w >= 0 && out[w].xBuf != out[w].dstBuf {
				if m, ok := storeReduce(out[w], r); ok {
					out[w] = m
					continue
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// storeReduce combines writer w and reduce r into one rkStoreRed op.
func storeReduce(w, r rowMatch) (rowMatch, bool) {
	m := rowMatch{kind: rkStoreRed, bin2: r.bin, dstBuf: w.dstBuf, dstBase: w.dstBase,
		xBuf: w.xBuf, xBase: w.xBase, accName: r.accName,
		scalar1: w.scalar1, scalarLeft: w.scalarLeft}
	switch w.kind {
	case rkCopy:
		m.un, m.bin = bcIdUn, binNoneIdx
	case rkMap1:
		m.un, m.bin = w.un, binNoneIdx
	case rkZipS:
		m.un, m.bin = bcIdUn, w.bin
	case rkMapZipS:
		m.un, m.bin = w.un, w.bin
	default:
		return rowMatch{}, false
	}
	return m, true
}

// loadedBufs collects the buffers e loads.
func loadedBufs(e Expr, out map[int]bool) {
	switch e := e.(type) {
	case FLoad:
		out[e.Buf] = true
	case FUn:
		loadedBufs(e.X, out)
	case FBin:
		loadedBufs(e.A, out)
		loadedBufs(e.B, out)
	case FCmp:
		loadedBufs(e.A, out)
		loadedBufs(e.B, out)
	}
}

// emitSweep emits the planned row ops. Without temporaries, or when the
// element count is a constant no larger than splitChunk, the ops run once
// over the whole sweep; otherwise they run chunk by chunk, in ascending
// order so folds keep their order, as a counted loop over the chunks (the
// only backward jump a program has is a loop tail):
//
//	for k := 0; k < (n+splitChunk-1)/splitChunk; k++ {
//	    c := k*splitChunk; m := min(n-c, splitChunk); ops over [c, c+m)
//	}
func (c *bcompiler) emitSweep(sw *sweep, s SLoop, unroll int) {
	if sw.nTmp > c.nTmp {
		c.nTmp = sw.nTmp
	}
	tn := c.tempInt()
	c.emitInt(s.Extent, tn)
	if unroll > 1 {
		c.emit(instr{op: opIMulImm, a: tn, b: tn, c: int32(unroll)})
	}
	n, static := s.Extent.(IConst)
	if sw.nTmp == 0 || static && int(n)*unroll <= splitChunk {
		for t := 0; t < sw.nTmp; t++ {
			c.emit(instr{op: opRowTmp, a: int32(c.k.NumBuffers + t), b: int32(t), e: int32(max(int(n)*unroll, 0))})
		}
		c.emitRowOps(sw.ops, tn, noOffset)
		return
	}
	chunk := c.tempInt()
	c.emit(instr{op: opIConst, a: chunk, b: splitChunk})
	for t := 0; t < sw.nTmp; t++ {
		c.emit(instr{op: opRowTmp, a: int32(c.k.NumBuffers + t), b: int32(t), e: splitChunk})
	}
	nch := c.tempInt()
	c.emit(instr{op: opIAddImm, a: nch, b: tn, c: splitChunk - 1})
	c.emit(instr{op: opIDiv, a: nch, b: nch, c: chunk})
	k := c.tempInt()
	off := c.tempInt()
	cnt := c.tempInt()
	c.emit(instr{op: opIConst, a: k, b: 0})
	head := c.emit(instr{op: opLoopHead, a: k, b: nch})
	c.emit(instr{op: opIMulImm, a: off, b: k, c: splitChunk})
	c.emit(instr{op: opISub, a: cnt, b: tn, c: off})
	c.emit(instr{op: opIMin, a: cnt, b: cnt, c: chunk})
	c.emitRowOps(sw.ops, cnt, off)
	c.emit(instr{op: opLoopTail, a: k, b: nch, c: int32(head + 1)})
	c.code[head].c = c.here()
}

// emitRowOps emits ops in order, releasing each op's base registers before
// the next.
func (c *bcompiler) emitRowOps(ops []rowMatch, tn, off int32) {
	mi, mf := c.tmpInt, c.tmpFlt
	for _, m := range ops {
		c.emitRowOp(m, tn, off)
		c.tmpInt, c.tmpFlt = mi, mf
	}
}
