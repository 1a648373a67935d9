package codegen

import (
	"fmt"
	"math"
	"sort"

	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// lowerLoopKernel lowers a pure elementwise group (kLoop or a single
// elementwise op) into a flat loop over the domain. Up to three variants
// are emitted: a speculative variant with the innermost extent fixed to
// its declared likely value (dispatched on runtime equality), a 4-wide
// unrolled vectorized loop guarded by numel%4==0, and the scalar fallback.
// Compile-time facts prune variants: proven divisibility drops the scalar
// fallback entirely.
func (lw *lowerer) lowerLoopKernel() (*Kernel, error) {
	grp := lw.g
	name := fmt.Sprintf("loop_g%d", grp.ID)

	// Broadcast groups whose every operand addresses a trailing suffix of
	// the domain (bias rows, scale rows) restructure into nested row loops:
	// the inner sweep is stride-1 with loop-invariant bases, so it collapses
	// to a single row op instead of paying a div/mod per element.
	if rs, ok := lw.classifyRowSplit(); ok {
		return lw.lowerRowSplitKernel(name, rs)
	}

	// Generic bodies first so lw.dims collects the full dim set; the
	// speculative body (built with a fixed dim) references a subset.
	body, flops, err := lw.loopBody("i")
	if err != nil {
		return nil, err
	}
	total := lw.numelExpr(grp.Domain)

	const vecWidth = 4
	provablyVec := lw.provablyDivisible(grp.Domain, vecWidth)

	type pending struct {
		prog    *kir.Kernel
		spec    GuardSpec
		name    string
		mem, cp float64
	}
	var variants []pending

	// Speculative likely-value variant: every domain dim with a declared
	// likely value is baked in as a constant, dispatched on runtime
	// equality (BladeDISC's shape speculation).
	if lw.opts.SpeculateLikely && len(grp.Domain) > 0 {
		fixed, guards := lw.likelyDomainDims(grp.Domain)
		if len(guards) > 0 {
			lw.fixed = fixed
			specBody, _, err := lw.loopBody("i")
			specTotal := lw.numelExpr(grp.Domain)
			lw.fixed = nil
			if err != nil {
				return nil, err
			}
			variants = append(variants, pending{
				prog: &kir.Kernel{
					Name:       name + "_" + specName(guards),
					NumBuffers: lw.nBufs,
					Body:       []kir.Stmt{kir.SLoop{Var: "i", Extent: specTotal, Body: specBody, Flags: kir.LoopStride1}},
				},
				spec: GuardSpec{Kind: GuardDimsEqual, Terms: guards},
				name: specName(guards),
				mem:  0.95, cp: 0.58,
			})
		}
	}

	if lw.opts.Vectorize {
		var vecBody []kir.Stmt
		for u := 0; u < vecWidth; u++ {
			vecBody = append(vecBody, kir.SSetInt{
				Var: "i",
				Val: kir.Add(kir.Mul(kir.IVar("i4"), kir.IConst(vecWidth)), kir.IConst(u)),
			})
			vecBody = append(vecBody, body...)
		}
		spec := GuardSpec{Kind: GuardNumelDivisible, Div: vecWidth}
		if provablyVec {
			// Compile-time proof: the guard (and the scalar fallback
			// below) are pruned entirely.
			spec = GuardSpec{}
		}
		variants = append(variants, pending{
			prog: &kir.Kernel{
				Name:       name + "_vec4",
				NumBuffers: lw.nBufs,
				Body: []kir.Stmt{
					kir.SLoop{Var: "i4", Extent: kir.Div(total, kir.IConst(vecWidth)), Body: vecBody, Flags: kir.LoopStride1},
				},
			},
			spec: spec,
			name: "vec4",
			mem:  0.92, cp: 0.55,
		})
	}
	if !(lw.opts.Vectorize && provablyVec) {
		variants = append(variants, pending{
			prog: &kir.Kernel{
				Name:       name + "_scalar",
				NumBuffers: lw.nBufs,
				Body:       []kir.Stmt{kir.SLoop{Var: "i", Extent: total, Body: body, Flags: kir.LoopStride1}},
			},
			name: "scalar",
			mem:  0.78, cp: 0.45,
		})
	}

	k := &Kernel{
		Name:          name,
		Group:         grp,
		Dims:          lw.dims,
		FlopsPerPoint: flops,
		Passes:        1,
	}
	dimNames := lw.dimNames()
	for _, v := range variants {
		v.prog.DimNames = dimNames
		cp, err := v.prog.Finalize()
		if err != nil {
			return nil, err
		}
		k.Variants = append(k.Variants, &Variant{
			Name: v.name, Guard: v.spec.Func(), Spec: v.spec, Code: cp,
			MemEfficiency: v.mem, ComputeEfficiency: v.cp,
		})
	}
	return k, nil
}

// rowSplitInfo describes a restructurable broadcast group: every operand
// index is the identity, a constant, or addresses a trailing suffix of the
// domain, so the flat loop splits into rows of the smallest such suffix.
type rowSplitInfo struct {
	inner   int   // trailing domain dims forming the stride-1 inner row
	hoisted []int // longer broadcast suffix lengths needing per-row bases
}

// classifyRowSplit decides whether the group's flat loop can restructure
// into nested row loops: every out-of-group operand must index the domain
// identically, be a constant (all-ones shape), or address a domain suffix
// (see suffixLen); every output must be identity-indexed (so rows stay
// disjoint).
func (lw *lowerer) classifyRowSplit() (rowSplitInfo, bool) {
	grp := lw.g
	if len(grp.Domain) < 2 {
		return rowSplitInfo{}, false
	}
	inGroup := map[*graph.Node]bool{}
	for _, n := range grp.Nodes {
		inGroup[n] = true
	}
	suffixes := map[int]bool{}
	for _, n := range grp.Nodes {
		for _, op := range n.Inputs {
			if inGroup[op] {
				continue
			}
			s := op.Shape
			if lw.ctx.ShapeEqual(s, grp.Domain) || lw.ctx.ProductEqual(s, grp.Domain) {
				continue
			}
			sl, ok := lw.suffixLen(op, n)
			if !ok {
				return rowSplitInfo{}, false
			}
			if sl > 0 && sl < len(grp.Domain) {
				suffixes[sl] = true
			}
		}
	}
	for _, out := range grp.Outputs {
		if !lw.ctx.ShapeEqual(out.Shape, grp.Domain) && !lw.ctx.ProductEqual(out.Shape, grp.Domain) {
			return rowSplitInfo{}, false
		}
	}
	if len(suffixes) == 0 {
		return rowSplitInfo{}, false
	}
	rs := rowSplitInfo{inner: len(grp.Domain)}
	for sl := range suffixes {
		if sl < rs.inner {
			rs.inner = sl
		}
	}
	for sl := range suffixes {
		if sl > rs.inner {
			rs.hoisted = append(rs.hoisted, sl)
		}
	}
	sort.Ints(rs.hoisted)
	return rs, true
}

// suffixBroadcast reports whether operand shape s addresses a pure suffix
// of the domain: leading dims all static 1, remaining dims equal to the
// domain's trailing dims. Returns the trailing dim count (0 for an
// all-ones scalar operand).
func (lw *lowerer) suffixBroadcast(s, domain symshape.Shape) (int, bool) {
	if len(s) > len(domain) {
		return 0, false
	}
	off := len(domain) - len(s)
	k0 := 0
	for k0 < len(s) && isStaticOne(lw.ctx, s[k0]) {
		k0++
	}
	for k := k0; k < len(s); k++ {
		if isStaticOne(lw.ctx, s[k]) || !lw.ctx.Equal(s[k], domain[off+k]) {
			return 0, false
		}
	}
	return len(s) - k0, true
}

// suffixLen reports the length sl of the domain suffix that operand op of
// consumer addresses: op's flat index at domain point flat is
// flat % numel(domain[len-sl:]). That holds when op broadcasts over leading
// domain axes (suffixBroadcast), and also when it broadcasts over leading
// axes of a consumer whose flat index coincides with the domain's and the
// addressed consumer suffix has the element count of a domain suffix — the
// QKV bias [H] added before a [.., H] -> [.., nh, hd] reshape addresses the
// domain's last two axes.
func (lw *lowerer) suffixLen(op, consumer *graph.Node) (int, bool) {
	domain := lw.g.Domain
	if sl, ok := lw.suffixBroadcast(op.Shape, domain); ok {
		return sl, true
	}
	if consumer == nil ||
		!(lw.ctx.ShapeEqual(consumer.Shape, domain) || lw.ctx.ProductEqual(consumer.Shape, domain)) {
		return 0, false
	}
	t, ok := lw.suffixBroadcast(op.Shape, consumer.Shape)
	if !ok {
		return 0, false
	}
	addressed := consumer.Shape[len(consumer.Shape)-t:]
	for sl := 0; sl <= len(domain); sl++ {
		if lw.ctx.ProductEqual(addressed, domain[len(domain)-sl:]) {
			return sl, true
		}
	}
	return 0, false
}

// rowSplitIndex resolves the index of operand op of consumer (nil for a
// group output) inside a row-split body: the outer row base plus the
// stride-1 inner offset, with suffix-broadcast operands addressed from
// their (possibly hoisted) suffix bases. Every base is inner-loop-invariant,
// which is what lets the bytecode compiler run the sweep as row ops.
func (lw *lowerer) rowSplitIndex(op, consumer *graph.Node) (kir.IntExpr, error) {
	domain := lw.g.Domain
	s := op.Shape
	if lw.ctx.ShapeEqual(s, domain) || lw.ctx.ProductEqual(s, domain) {
		return kir.Add(kir.IVar("rb"), kir.IVar("rj")), nil
	}
	sl, ok := lw.suffixLen(op, consumer)
	if !ok {
		return nil, fmt.Errorf("codegen: operand shape %s not row-splittable against domain %s",
			lw.ctx.String(s), lw.ctx.String(domain))
	}
	switch {
	case sl == len(domain):
		return kir.Add(kir.IVar("rb"), kir.IVar("rj")), nil
	case sl == 0:
		return kir.IConst(0), nil
	case sl == lw.rowSplit.inner:
		return kir.IVar("rj"), nil
	default:
		return kir.Add(kir.IVar(fmt.Sprintf("rb%d", sl)), kir.IVar("rj")), nil
	}
}

// lowerRowSplitKernel emits the nested row-loop form of a broadcast group:
//
//	for ro in 0..total/L {           // outer rows
//	  rb := ro * L
//	  rbK := rb % suffixProd(K)      // one per longer broadcast suffix
//	  for rj in 0..L (stride-1) { ... body with invariant bases ... }
//	}
//
// A broadcast at suffix K > inner reads element rb%K + rj, which equals
// (rb+rj) % K because rb is a multiple of L, K is a multiple of L (both are
// domain suffix products), and rj < L.
func (lw *lowerer) lowerRowSplitKernel(name string, rs rowSplitInfo) (*Kernel, error) {
	grp := lw.g
	lw.rowSplit = &rs
	body, flops, err := lw.loopBody("rj")
	lw.rowSplit = nil
	if err != nil {
		return nil, err
	}
	cut := len(grp.Domain) - rs.inner
	innerExt := lw.numelExpr(grp.Domain[cut:])
	outerExt := lw.numelExpr(grp.Domain[:cut])
	row := []kir.Stmt{
		kir.SSetInt{Var: "rb", Val: kir.Mul(kir.IVar("ro"), innerExt)},
	}
	for _, sl := range rs.hoisted {
		row = append(row, kir.SSetInt{
			Var: fmt.Sprintf("rb%d", sl),
			Val: kir.Mod(kir.IVar("rb"), lw.numelExpr(grp.Domain[len(grp.Domain)-sl:])),
		})
	}
	row = append(row, kir.SLoop{Var: "rj", Extent: innerExt, Body: body, Flags: kir.LoopStride1})
	prog := &kir.Kernel{
		Name:       name + "_rows",
		NumBuffers: lw.nBufs,
		DimNames:   lw.dimNames(),
		Body:       []kir.Stmt{kir.SLoop{Var: "ro", Extent: outerExt, Body: row}},
	}
	cp, err := prog.Finalize()
	if err != nil {
		return nil, err
	}
	return &Kernel{
		Name:          name,
		Group:         grp,
		Dims:          lw.dims,
		FlopsPerPoint: flops,
		Passes:        1,
		Variants: []*Variant{{
			Name: "rows", Code: cp,
			MemEfficiency: 0.95, ComputeEfficiency: 0.6,
		}},
	}, nil
}

// loopBody builds the per-point statements for an elementwise group with
// the flat domain index in flatVar, returning the statements and the
// arithmetic flops charged per point.
func (lw *lowerer) loopBody(flatVar string) ([]kir.Stmt, int, error) {
	grp := lw.g
	var stmts []kir.Stmt
	flops := 0
	local := func(n *graph.Node) string { return fmt.Sprintf("v%d", n.ID) }
	inGroup := map[*graph.Node]bool{}
	for _, n := range grp.Nodes {
		inGroup[n] = true
	}
	var valErr error
	valueFor := func(consumer *graph.Node) func(op *graph.Node) kir.Expr {
		return func(op *graph.Node) kir.Expr {
			if inGroup[op] {
				return kir.FLocal(local(canonical(lw.dup, op)))
			}
			buf, ok := lw.bufIndex[op]
			if !ok {
				valErr = fmt.Errorf("codegen: operand %%%d not a group input", op.ID)
				return kir.FConst(0)
			}
			var idx kir.IntExpr
			var err error
			if lw.rowSplit != nil {
				idx, err = lw.rowSplitIndex(op, consumer)
			} else {
				idx, err = lw.operandIndexForUse(flatVar, op.Shape, consumer.Shape, grp.Domain)
			}
			if err != nil {
				valErr = err
				return kir.FConst(0)
			}
			return kir.FLoad{Buf: buf, Idx: idx}
		}
	}
	for _, n := range grp.Nodes {
		if n.Kind == graph.OpConstant {
			return nil, 0, fmt.Errorf("codegen: constants must be group inputs")
		}
		// The device model charges every member; the VM computes a
		// duplicate once.
		flops += n.Kind.FlopsPerElement()
		if lw.dup[n] != nil {
			continue
		}
		e, err := nodeValueExpr(n, valueFor(n))
		if err != nil {
			return nil, 0, err
		}
		if valErr != nil {
			return nil, 0, valErr
		}
		stmts = append(stmts, kir.SSet{Var: local(n), Val: e})
	}
	for _, out := range grp.Outputs {
		var idx kir.IntExpr
		var err error
		if lw.rowSplit != nil {
			idx, err = lw.rowSplitIndex(out, nil)
		} else {
			idx, err = lw.operandIndex(flatVar, out.Shape, grp.Domain)
		}
		if err != nil {
			return nil, 0, err
		}
		stmts = append(stmts, kir.SStore{Buf: lw.bufIndex[out], Idx: idx, Val: kir.FLocal(local(canonical(lw.dup, out)))})
	}
	return stmts, flops, nil
}

// provablyDivisible reports whether the product of the domain extents is
// provably divisible by k using the symbolic facts (static values and
// divisibility declarations). Sound but not complete: it multiplies
// per-dimension divisors.
func (lw *lowerer) provablyDivisible(domain symshape.Shape, k int64) bool {
	prod := int64(1)
	for _, d := range domain {
		if v, ok := lw.ctx.StaticValue(d); ok {
			prod *= v
		} else {
			prod *= lw.ctx.Divisor(d)
		}
		if prod%k == 0 {
			return true
		}
	}
	return prod%k == 0
}

// lowerSpecialSingle lowers single-node groups that are neither elementwise
// nor row reductions: currently general reductions over arbitrary axes.
// Returns ok=false when the group should fall through to the generic
// elementwise lowering.
func (lw *lowerer) lowerSpecialSingle() (*Kernel, bool, error) {
	n := lw.g.Nodes[0]
	if n.Kind != graph.OpReduce {
		return nil, false, nil
	}
	k, err := lw.lowerGeneralReduce(n)
	return k, true, err
}

// lowerGeneralReduce lowers a reduction over arbitrary axes as a loop over
// the output space with a nested loop per reduced axis.
func (lw *lowerer) lowerGeneralReduce(n *graph.Node) (*Kernel, error) {
	grp := lw.g
	in := n.Inputs[0]
	inBuf, ok := lw.bufIndex[in]
	if !ok {
		return nil, fmt.Errorf("codegen: reduce input %%%d not a group input", in.ID)
	}
	outBuf := lw.bufIndex[n]

	reduced := map[int]bool{}
	for _, a := range n.Reduce.Axes {
		reduced[a] = true
	}
	// Input strides.
	strideIn := make([]kir.IntExpr, in.Rank()+1)
	strideIn[in.Rank()] = kir.IConst(1)
	for i := in.Rank() - 1; i >= 0; i-- {
		strideIn[i] = kir.Mul(lw.dimExpr(in.Shape[i]), strideIn[i+1])
	}
	// Kept dims drive the outer loop (flat output index "o"); each kept
	// dim contributes coord*strideIn to the base index.
	keptDims := make([]int, 0, in.Rank())
	for i := 0; i < in.Rank(); i++ {
		if !reduced[i] {
			keptDims = append(keptDims, i)
		}
	}
	// Suffix products over kept extents for decomposing "o".
	prodAfterKept := make([]kir.IntExpr, len(keptDims)+1)
	prodAfterKept[len(keptDims)] = kir.IConst(1)
	for i := len(keptDims) - 1; i >= 0; i-- {
		prodAfterKept[i] = kir.Mul(lw.dimExpr(in.Shape[keptDims[i]]), prodAfterKept[i+1])
	}
	var base kir.IntExpr = kir.IConst(0)
	for i, ki := range keptDims {
		coord := kir.Mod(kir.Div(kir.IVar("o"), prodAfterKept[i+1]), lw.dimExpr(in.Shape[ki]))
		base = kir.Add(base, kir.Mul(coord, strideIn[ki+1]))
	}
	// Reduced index term: nested loops r0..rk.
	idx := base
	var redExtent kir.IntExpr = kir.IConst(1)
	for i, a := range n.Reduce.Axes {
		v := fmt.Sprintf("r%d", i)
		idx = kir.Add(idx, kir.Mul(kir.IVar(v), strideIn[a+1]))
		redExtent = kir.Mul(redExtent, lw.dimExpr(in.Shape[a]))
	}
	combine, id := reduceCombine(n.Reduce.Kind)
	inner := []kir.Stmt{
		kir.SSet{Var: "acc", Val: kir.FBin{Fn: combine, A: kir.FLocal("acc"), B: kir.FLoad{Buf: inBuf, Idx: idx}}},
	}
	// Wrap nested loops innermost-out. The innermost sweep is contiguous
	// exactly when it reduces the input's last axis (stride 1).
	for i := len(n.Reduce.Axes) - 1; i >= 0; i-- {
		var flags kir.LoopFlags
		if i == len(n.Reduce.Axes)-1 && n.Reduce.Axes[i] == in.Rank()-1 {
			flags = kir.LoopStride1
		}
		inner = []kir.Stmt{kir.SLoop{Var: fmt.Sprintf("r%d", i), Extent: lw.dimExpr(in.Shape[n.Reduce.Axes[i]]), Body: inner, Flags: flags}}
	}
	final := kir.Expr(kir.FLocal("acc"))
	if n.Reduce.Kind == tensor.ReduceMean {
		final = kir.FBin{Fn: "div", A: final, B: kir.FCastInt{X: redExtent}}
	}
	body := []kir.Stmt{
		kir.SSet{Var: "acc", Val: kir.FConst(id)},
	}
	body = append(body, inner...)
	body = append(body, kir.SStore{Buf: outBuf, Idx: kir.IVar("o"), Val: final})

	prog := &kir.Kernel{
		Name:       fmt.Sprintf("reduce_g%d", grp.ID),
		NumBuffers: lw.nBufs,
		DimNames:   lw.dimNames(),
		Body: []kir.Stmt{
			kir.SLoop{Var: "o", Extent: lw.numelExpr(n.Shape), Body: body},
		},
	}
	cp, err := prog.Finalize()
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		Name:          prog.Name,
		Group:         grp,
		Dims:          lw.dims,
		FlopsPerPoint: 1,
		Passes:        1,
		Variants: []*Variant{{
			Name: "generic", Code: cp,
			MemEfficiency: 0.6, ComputeEfficiency: 0.4,
		}},
	}
	return k, nil
}

// reduceCombine maps a reduce kind to its kir combine function and
// identity element.
func reduceCombine(k tensor.ReduceKind) (fn string, identity float32) {
	switch k {
	case tensor.ReduceMax:
		return "max", float32(negInf)
	case tensor.ReduceMin:
		return "min", float32(posInf)
	default: // sum, mean
		return "add", 0
	}
}
