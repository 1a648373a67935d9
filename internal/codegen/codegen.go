// Package codegen lowers fusion groups into shape-generic kernel IR and
// implements the paper's compile-time + runtime combined code generation:
// at compile time each group is lowered once, parameterized by runtime
// dimensions, and *multiple specialized variants* are emitted (vectorized
// elementwise loops, row-block vs row-warp reduction schedules); at run
// time a tiny dispatcher picks a variant from the concrete shapes of the
// invocation. Symbolic divisibility and range facts prune variants at
// compile time when a guard is provable, so a static fact removes the
// runtime branch entirely.
package codegen

import (
	"fmt"
	"slices"

	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/symshape"
)

// Options toggles specialization features (the E8 ablation hooks).
type Options struct {
	// Vectorize emits 4-wide unrolled elementwise variants when legal.
	Vectorize bool
	// RowSchedules emits both row-block and row-warp reduction schedules
	// with runtime selection.
	RowSchedules bool
	// SpeculateLikely emits a variant specialized to a dimension's
	// declared likely value, dispatched on runtime equality.
	SpeculateLikely bool
}

// DefaultOptions enables all specializations.
func DefaultOptions() Options {
	return Options{Vectorize: true, RowSchedules: true, SpeculateLikely: true}
}

// RunInfo is the concrete-shape summary the variant dispatcher sees at
// invocation time.
type RunInfo struct {
	// DomainNumel is the number of iteration-space points.
	DomainNumel int
	// RowLen is the innermost (row) extent; 0 for kernels with an empty
	// domain.
	RowLen int
	// Dims carries the concrete values of the kernel's runtime dims
	// (aligned with Kernel.Dims); speculative guards test it.
	Dims []int
}

// RunInfoOf is a convenience constructor.
func RunInfoOf(numel, rowLen int, dims []int) RunInfo {
	return RunInfo{DomainNumel: numel, RowLen: rowLen, Dims: dims}
}

// Variant is one compiled specialization of a kernel.
type Variant struct {
	// Name identifies the schedule ("vec4", "scalar", "rowblock", ...).
	Name string
	// Guard reports whether the variant may run for the given concrete
	// shapes; a nil Guard always matches (the generic fallback).
	Guard func(RunInfo) bool
	// Spec is the serializable description of Guard; Guard is always
	// Spec.Func(), so a persisted variant can rebuild its dispatch
	// predicate after decode. The zero Spec means "always matches".
	Spec GuardSpec
	// Code is the finalized kernel program.
	Code *kir.Compiled
	// MemEfficiency and ComputeEfficiency feed the device cost model.
	MemEfficiency     float64
	ComputeEfficiency float64
}

// GuardKind enumerates the dispatch-predicate forms a variant can carry.
// Guards are pure data so compiled engines can be serialized and the
// predicate rebuilt on load.
type GuardKind uint8

const (
	// GuardAlways matches every invocation (the generic fallback).
	GuardAlways GuardKind = iota
	// GuardDimsEqual matches when every term's runtime dim equals its
	// speculated value (BladeDISC shape speculation).
	GuardDimsEqual
	// GuardNumelDivisible matches when DomainNumel is divisible by Div
	// (the vectorized-loop guard).
	GuardNumelDivisible
	// GuardRowAtLeast matches when RowLen >= MinRow (the row-block
	// schedule guard).
	GuardRowAtLeast
)

// GuardTerm is one equality test of a speculative variant's guard.
type GuardTerm struct {
	DimIndex int
	Value    int
}

// GuardSpec is the serializable form of a variant guard.
type GuardSpec struct {
	Kind   GuardKind
	Terms  []GuardTerm // GuardDimsEqual
	Div    int         // GuardNumelDivisible
	MinRow int         // GuardRowAtLeast
}

// Func rebuilds the dispatch predicate; nil for GuardAlways (a nil Guard
// always matches in Kernel.Select).
func (s GuardSpec) Func() func(RunInfo) bool {
	switch s.Kind {
	case GuardDimsEqual:
		terms := s.Terms
		return func(info RunInfo) bool {
			for _, t := range terms {
				if t.DimIndex >= len(info.Dims) || info.Dims[t.DimIndex] != t.Value {
					return false
				}
			}
			return true
		}
	case GuardNumelDivisible:
		div := s.Div
		return func(info RunInfo) bool { return info.DomainNumel%div == 0 }
	case GuardRowAtLeast:
		min := s.MinRow
		return func(info RunInfo) bool { return info.RowLen >= min }
	}
	return nil
}

// Kernel is a fully lowered fusion group: shape-generic code plus its
// runtime dispatch table and everything the executor needs to size buffers.
type Kernel struct {
	Name  string
	Group *fusion.Group
	// Variants in dispatch order; the last one always matches.
	Variants []*Variant
	// Dims are the dynamic dimension symbols the kernel needs bound at
	// run time, aligned with the kir DimNames.
	Dims []symshape.DimID
	// ScratchRows is the number of per-row staging buffers (row length
	// each) the kernel needs appended after inputs+outputs. Non-zero only
	// for stitched kernels.
	ScratchRows int
	// FlopsPerPoint is the arithmetic charged per iteration-space point.
	FlopsPerPoint int
	// Passes is the number of row sweeps (1 for kLoop/kInput).
	Passes int
}

// Select returns the first variant whose guard accepts info.
func (k *Kernel) Select(info RunInfo) *Variant {
	for _, v := range k.Variants {
		if v.Guard == nil || v.Guard(info) {
			return v
		}
	}
	// By construction the last variant has a nil guard.
	return k.Variants[len(k.Variants)-1]
}

// lowerer carries shared lowering state for one group.
type lowerer struct {
	ctx  *symshape.Context
	g    *fusion.Group
	opts Options
	// bufIndex maps operand/output nodes to kir buffer slots.
	bufIndex map[*graph.Node]int
	nBufs    int
	// dims collects the dynamic dims used, in first-use order.
	dims    []symshape.DimID
	dimSeen map[symshape.DimID]bool
	// fixed substitutes constants for dims while building a speculative
	// variant body (nil outside speculation).
	fixed map[symshape.DimID]int64
	// rowSplit, when non-nil, redirects operand indexing to the nested
	// row-loop form (outer row base + stride-1 inner offset) instead of
	// Div/Mod decompositions of a flat index.
	rowSplit *rowSplitInfo
	// dup maps each group member that repeats an earlier member's
	// computation to that member (see groupDuplicates).
	dup map[*graph.Node]*graph.Node
}

// groupDuplicates maps every group member that repeats an earlier member's
// computation — same kind, operands, shape and attributes, as the
// DuplicateProducers clones that land in one group do — to that member, so
// the computation is lowered once. The same f32 ops run either way, so
// outputs are unchanged.
func groupDuplicates(nodes []*graph.Node) map[*graph.Node]*graph.Node {
	dup := map[*graph.Node]*graph.Node{}
	for i, n := range nodes {
		for _, prev := range nodes[:i] {
			if dup[prev] == nil && sameComputation(dup, n, prev) {
				dup[n] = prev
				break
			}
		}
	}
	return dup
}

// sameComputation compares the fields that determine a scalar op's value,
// with operands compared by their canonical members.
func sameComputation(dup map[*graph.Node]*graph.Node, a, b *graph.Node) bool {
	if a.Kind != b.Kind || a.DType != b.DType || a.CmpOp != b.CmpOp || a.To != b.To ||
		a.Reduce.Kind != b.Reduce.Kind || a.Reduce.KeepDims != b.Reduce.KeepDims ||
		!slices.Equal(a.Reduce.Axes, b.Reduce.Axes) || !slices.Equal(a.Shape, b.Shape) ||
		len(a.Inputs) != len(b.Inputs) {
		return false
	}
	for i := range a.Inputs {
		if canonical(dup, a.Inputs[i]) != canonical(dup, b.Inputs[i]) {
			return false
		}
	}
	return true
}

// canonical returns the member that computes n's value.
func canonical(dup map[*graph.Node]*graph.Node, n *graph.Node) *graph.Node {
	if c, ok := dup[n]; ok {
		return c
	}
	return n
}

// Lower compiles one fusion group into a Kernel.
func Lower(ctx *symshape.Context, grp *fusion.Group, opts Options) (*Kernel, error) {
	lw := &lowerer{
		ctx:      ctx,
		g:        grp,
		opts:     opts,
		bufIndex: map[*graph.Node]int{},
		dimSeen:  map[symshape.DimID]bool{},
		dup:      groupDuplicates(grp.Nodes),
	}
	for _, in := range grp.Inputs {
		lw.bufIndex[in] = lw.nBufs
		lw.nBufs++
	}
	for _, out := range grp.Outputs {
		lw.bufIndex[out] = lw.nBufs
		lw.nBufs++
	}
	switch grp.Kind {
	case fusion.KLoop, fusion.KSingle, fusion.KInput, fusion.KStitch:
		if grp.Reduces > 0 {
			return lw.lowerRowKernel()
		}
		if len(grp.Nodes) == 1 {
			if k, ok, err := lw.lowerSpecialSingle(); ok || err != nil {
				return k, err
			}
		}
		return lw.lowerLoopKernel()
	case fusion.KLibrary:
		return nil, fmt.Errorf("codegen: library groups are executed via the BLAS substitute, not lowered")
	case fusion.KData:
		return lw.lowerDataKernel()
	}
	return nil, fmt.Errorf("codegen: unknown group kind %s", grp.Kind)
}

// dimExpr renders a symbolic dim as a kir index expression: static dims
// become constants, dynamic dims become runtime parameters.
func (lw *lowerer) dimExpr(d symshape.DimID) kir.IntExpr {
	if v, ok := lw.ctx.StaticValue(d); ok {
		return kir.IConst(int(v))
	}
	r := lw.ctx.Root(d)
	if v, ok := lw.fixed[r]; ok {
		return kir.IConst(int(v))
	}
	if !lw.dimSeen[r] {
		lw.dimSeen[r] = true
		lw.dims = append(lw.dims, r)
	}
	return kir.IDim(dimName(r))
}

func dimName(d symshape.DimID) string { return fmt.Sprintf("s%d", d) }

// likelyDomainDims returns the domain dims (by root) that carry a declared
// likely value, with their positions in lw.dims — the speculation set. Must
// be called after the generic body registered all dims.
func (lw *lowerer) likelyDomainDims(domain symshape.Shape) (map[symshape.DimID]int64, []GuardTerm) {
	fixed := map[symshape.DimID]int64{}
	var guards []GuardTerm
	for _, d := range domain {
		if lw.ctx.IsStatic(d) {
			continue
		}
		r := lw.ctx.Root(d)
		if _, dup := fixed[r]; dup {
			continue
		}
		v, ok := lw.ctx.Likely(r)
		if !ok {
			continue
		}
		idx := -1
		for i, kd := range lw.dims {
			if kd == r {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		fixed[r] = v
		guards = append(guards, GuardTerm{DimIndex: idx, Value: int(v)})
	}
	return fixed, guards
}

// specName renders the variant name from the speculated values.
func specName(terms []GuardTerm) string {
	name := "spec"
	for i, t := range terms {
		if i > 0 {
			name += "_"
		}
		name += fmt.Sprintf("%d", t.Value)
	}
	return name
}

// numelExpr builds the product of a shape's extents.
func (lw *lowerer) numelExpr(s symshape.Shape) kir.IntExpr {
	var e kir.IntExpr = kir.IConst(1)
	for _, d := range s {
		e = kir.Mul(e, lw.dimExpr(d))
	}
	return e
}

// dimNames renders the collected dynamic dims for the kir kernel header.
func (lw *lowerer) dimNames() []string {
	names := make([]string, len(lw.dims))
	for i, d := range lw.dims {
		names[i] = dimName(d)
	}
	return names
}

// operandIndexForUse maps the flat domain index to an operand's flat index
// in the context of a specific consumer node. Operands usually relate to
// the group domain directly; when they do not (e.g. a bias vector consumed
// by an add whose result was later reshaped, so the domain has different
// trailing structure), the operand is resolved against the consumer's own
// shape — legal whenever the consumer's flat index coincides with the
// domain's (equal or product-equal shapes).
func (lw *lowerer) operandIndexForUse(flatVar string, s, consumer, domain symshape.Shape) (kir.IntExpr, error) {
	if idx, err := lw.operandIndex(flatVar, s, domain); err == nil {
		return idx, nil
	}
	if lw.ctx.ShapeEqual(consumer, domain) || lw.ctx.ProductEqual(consumer, domain) {
		return lw.operandIndex(flatVar, s, consumer)
	}
	return nil, fmt.Errorf("codegen: operand shape %s unreachable from domain %s via consumer %s",
		lw.ctx.String(s), lw.ctx.String(domain), lw.ctx.String(consumer))
}

// operandIndex builds the index expression mapping the flat domain index
// (held in int var flatVar) to the flat index of an operand of shape s.
// Cases mirror fusion.loopCompatible: same shape / product-equal shapes use
// the identity; broadcasts decompose the flat index over the domain dims
// and drop broadcast strides.
func (lw *lowerer) operandIndex(flatVar string, s, domain symshape.Shape) (kir.IntExpr, error) {
	if lw.ctx.ShapeEqual(s, domain) || lw.ctx.ProductEqual(s, domain) {
		return kir.IVar(flatVar), nil
	}
	if !broadcastsInto(lw.ctx, s, domain) {
		return nil, fmt.Errorf("codegen: operand shape %s is not loop-compatible with domain %s",
			lw.ctx.String(s), lw.ctx.String(domain))
	}
	// coord_k = (flat / prodAfter_k) % domain_k ; index = sum coord_k*stride_k
	// over the trailing-aligned dims of s that are not broadcast.
	off := len(domain) - len(s)
	var idx kir.IntExpr = kir.IConst(0)
	// Precompute suffix products of the domain and of the operand.
	prodAfterDomain := make([]kir.IntExpr, len(domain)+1)
	prodAfterDomain[len(domain)] = kir.IConst(1)
	for k := len(domain) - 1; k >= 0; k-- {
		prodAfterDomain[k] = kir.Mul(lw.dimExpr(domain[k]), prodAfterDomain[k+1])
	}
	strideS := make([]kir.IntExpr, len(s)+1)
	strideS[len(s)] = kir.IConst(1)
	for k := len(s) - 1; k >= 0; k-- {
		strideS[k] = kir.Mul(lw.dimExpr(s[k]), strideS[k+1])
	}
	for k := 0; k < len(s); k++ {
		if isStaticOne(lw.ctx, s[k]) {
			continue // broadcast dim: stride 0
		}
		dk := off + k
		coord := kir.Mod(kir.Div(kir.IVar(flatVar), prodAfterDomain[dk+1]), lw.dimExpr(domain[dk]))
		idx = kir.Add(idx, kir.Mul(coord, strideS[k+1]))
	}
	return idx, nil
}

func broadcastsInto(ctx *symshape.Context, s, domain symshape.Shape) bool {
	if len(s) > len(domain) {
		return false
	}
	off := len(domain) - len(s)
	for i, d := range s {
		if isStaticOne(ctx, d) {
			continue
		}
		if !ctx.Equal(d, domain[off+i]) {
			return false
		}
	}
	return true
}

func isStaticOne(ctx *symshape.Context, d symshape.DimID) bool {
	v, ok := ctx.StaticValue(d)
	return ok && v == 1
}

// scalarFn maps elementwise op kinds to kir function names.
func scalarFn(k graph.OpKind) (string, bool) {
	switch k {
	case graph.OpNeg:
		return "neg", true
	case graph.OpAbs:
		return "abs", true
	case graph.OpExp:
		return "exp", true
	case graph.OpLog:
		return "log", true
	case graph.OpSqrt:
		return "sqrt", true
	case graph.OpRsqrt:
		return "rsqrt", true
	case graph.OpTanh:
		return "tanh", true
	case graph.OpErf:
		return "erf", true
	case graph.OpSigmoid:
		return "sigmoid", true
	case graph.OpRelu:
		return "relu", true
	case graph.OpGelu:
		return "gelu", true
	case graph.OpAdd:
		return "add", true
	case graph.OpSub:
		return "sub", true
	case graph.OpMul:
		return "mul", true
	case graph.OpDiv:
		return "div", true
	case graph.OpPow:
		return "pow", true
	case graph.OpMaximum:
		return "max", true
	case graph.OpMinimum:
		return "min", true
	}
	return "", false
}

// nodeValueExpr builds the scalar expression computing node n at the
// current iteration point. valueOf returns the expression for an operand
// (a local for in-group nodes, a load for external operands).
func nodeValueExpr(n *graph.Node, valueOf func(*graph.Node) kir.Expr) (kir.Expr, error) {
	if fn, ok := scalarFn(n.Kind); ok {
		if n.Kind.IsElementwiseUnary() {
			return kir.FUn{Fn: fn, X: valueOf(n.Inputs[0])}, nil
		}
		return kir.FBin{Fn: fn, A: valueOf(n.Inputs[0]), B: valueOf(n.Inputs[1])}, nil
	}
	switch n.Kind {
	case graph.OpCompare:
		return kir.FCmp{Op: n.CmpOp, A: valueOf(n.Inputs[0]), B: valueOf(n.Inputs[1])}, nil
	case graph.OpSelect:
		return kir.FSel{P: valueOf(n.Inputs[0]), A: valueOf(n.Inputs[1]), B: valueOf(n.Inputs[2])}, nil
	case graph.OpReshape, graph.OpConvert:
		// Identity at the scalar level: reshape is a flat-index no-op and
		// all kernel buffers are f32 already.
		return valueOf(n.Inputs[0]), nil
	}
	return nil, fmt.Errorf("codegen: op %s is not a scalar op", n.Kind)
}
