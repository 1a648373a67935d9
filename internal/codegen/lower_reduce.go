package codegen

import (
	"fmt"

	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/tensor"
)

// nodeClass classifies group members of a row kernel.
type nodeClass uint8

const (
	// classPoint is computed per (row, j) iteration point: full-row shapes
	// and shapes broadcasting into the row domain.
	classPoint nodeClass = iota
	// classReduce is a last-axis reduction producing one value per row.
	classReduce
	// classScalar is elementwise math over per-row values (shape [rows...]
	// or [rows..., 1]).
	classScalar
)

// rowPlan is the pass schedule of a row kernel: which j-sweep computes each
// per-point node, when each reduction finalizes, and which intermediates
// must be staged in the per-row scratch (shared memory).
type rowPlan struct {
	class  map[*graph.Node]nodeClass
	pass   map[*graph.Node]int // classPoint/classReduce: owning j-sweep
	bound  map[*graph.Node]int // classScalar/classReduce: availability boundary
	staged map[*graph.Node]int // classPoint nodes -> scratch slot
	passes int
}

// lowerRowKernel lowers a group containing last-axis reductions (kInput or
// kStitch) into a per-row multi-pass kernel: each pass is one sweep over
// the row; intermediates needed across passes are staged in scratch rows
// (the shared-memory tiles of the stitched GPU kernel).
func (lw *lowerer) lowerRowKernel() (*Kernel, error) {
	grp := lw.g
	domain := grp.Domain
	if len(domain) == 0 {
		return nil, fmt.Errorf("codegen: row kernel with empty domain")
	}
	last := domain[len(domain)-1]

	plan, err := lw.planRowPasses()
	if err != nil {
		return nil, err
	}

	prog, flops, err := lw.rowProgram(plan, "")
	if err != nil {
		return nil, err
	}

	// Speculative likely-value variant: every domain dim with a declared
	// likely value is baked in as a constant, dispatched on runtime
	// equality.
	var specProg *kir.Kernel
	var specGuards []GuardTerm
	if lw.opts.SpeculateLikely {
		fixed, guards := lw.likelyDomainDims(domain)
		if len(guards) > 0 {
			lw.fixed = fixed
			specProg, _, err = lw.rowProgram(plan, "_"+specName(guards))
			lw.fixed = nil
			if err != nil {
				return nil, err
			}
			specGuards = guards
		}
	}

	k := &Kernel{
		Name:          fmt.Sprintf("row_g%d", grp.ID),
		Group:         grp,
		Dims:          lw.dims,
		ScratchRows:   len(plan.staged),
		FlopsPerPoint: flops,
		Passes:        plan.passes,
	}
	dimNames := lw.dimNames()
	prog.DimNames = dimNames
	cp, err := prog.Finalize()
	if err != nil {
		return nil, err
	}
	if specProg != nil {
		specProg.DimNames = dimNames
		scp, err := specProg.Finalize()
		if err != nil {
			return nil, err
		}
		spec := GuardSpec{Kind: GuardDimsEqual, Terms: specGuards}
		k.Variants = append(k.Variants, &Variant{
			Name:  specName(specGuards),
			Guard: spec.Func(),
			Spec:  spec,
			Code:  scp, MemEfficiency: 0.9, ComputeEfficiency: 0.55,
		})
	}
	// Row-schedule variants: a block-per-row schedule shines on long rows,
	// a warp-per-row schedule on short ones. Range facts prune the dispatch
	// at compile time when they bound the row length on one side of the
	// threshold.
	const rowThreshold = 128
	lo, hi := lw.ctx.Range(last)
	if lw.opts.RowSchedules {
		blockSpec := GuardSpec{Kind: GuardRowAtLeast, MinRow: rowThreshold}
		switch {
		case lo >= rowThreshold:
			k.Variants = append(k.Variants, &Variant{Name: "rowblock", Code: cp,
				MemEfficiency: 0.85, ComputeEfficiency: 0.5})
		case hi < rowThreshold:
			k.Variants = append(k.Variants, &Variant{Name: "rowwarp", Code: cp,
				MemEfficiency: 0.8, ComputeEfficiency: 0.45})
		default:
			k.Variants = append(k.Variants,
				&Variant{Name: "rowblock", Guard: blockSpec.Func(), Spec: blockSpec, Code: cp,
					MemEfficiency: 0.85, ComputeEfficiency: 0.5},
				&Variant{Name: "rowwarp", Code: cp,
					MemEfficiency: 0.8, ComputeEfficiency: 0.45})
		}
	} else {
		// One-size-fits-all schedule: mediocre everywhere.
		k.Variants = append(k.Variants, &Variant{Name: "rowgeneric", Code: cp,
			MemEfficiency: 0.62, ComputeEfficiency: 0.4})
	}
	return k, nil
}

// rowProgram builds the multi-pass row program for the group under the
// lowerer's current dim substitutions.
func (lw *lowerer) rowProgram(plan *rowPlan, nameSuffix string) (*kir.Kernel, int, error) {
	grp := lw.g
	domain := grp.Domain
	rows := domain[:len(domain)-1]
	last := domain[len(domain)-1]

	inGroup := map[*graph.Node]bool{}
	for _, n := range grp.Nodes {
		inGroup[n] = true
	}
	local := func(n *graph.Node) string { return fmt.Sprintf("v%d", n.ID) }

	lExpr := lw.dimExpr(last)
	rExpr := lw.numelExpr(rows)

	// Per-pass loop-variable names: each pass's j sweep and flat index get
	// their own name so a sweep that collapses into a row superinstruction
	// provably has no reads of its loop locals outside its own body.
	jVar := func(p int) string { return fmt.Sprintf("j%d", p) }
	flatVar := func(p int) string { return fmt.Sprintf("flat%d", p) }

	// rowBases collects the domain-suffix lengths whose per-row element
	// base (rowBaseVar) the sweeps read; each is computed once per row.
	rowBases := map[int]bool{}

	// valueOf for per-point evaluation in pass p at loop vars (r, j, flat),
	// in the context of a consumer node (for operand index resolution).
	var valErr error
	pointValue := func(p int, consumer *graph.Node) func(op *graph.Node) kir.Expr {
		return func(op *graph.Node) kir.Expr {
			if inGroup[op] {
				op = canonical(lw.dup, op)
				switch plan.class[op] {
				case classPoint:
					if plan.pass[op] == p {
						return kir.FLocal(local(op))
					}
					slot, ok := plan.staged[op]
					if !ok {
						valErr = fmt.Errorf("codegen: node %%%d needed across passes but not staged", op.ID)
						return kir.FConst(0)
					}
					return kir.FLoad{Buf: lw.nBufs + slot, Idx: kir.IVar(jVar(p))}
				default:
					return kir.FLocal(local(op))
				}
			}
			buf, ok := lw.bufIndex[op]
			if !ok {
				valErr = fmt.Errorf("codegen: operand %%%d not a group input", op.ID)
				return kir.FConst(0)
			}
			idx, err := lw.rowOperandIndex(op, consumer, flatVar(p), jVar(p), rowBases)
			if err != nil {
				valErr = err
				return kir.FConst(0)
			}
			return kir.FLoad{Buf: buf, Idx: idx}
		}
	}
	// valueOf for per-row scalar evaluation (between passes).
	scalarValue := func(op *graph.Node) kir.Expr {
		if inGroup[op] {
			return kir.FLocal(local(canonical(lw.dup, op)))
		}
		buf, ok := lw.bufIndex[op]
		if !ok {
			valErr = fmt.Errorf("codegen: operand %%%d not a group input", op.ID)
			return kir.FConst(0)
		}
		idx, err := lw.rowScalarOperandIndex(op)
		if err != nil {
			valErr = err
			return kir.FConst(0)
		}
		return kir.FLoad{Buf: buf, Idx: idx}
	}

	flops := 0
	var rowBody []kir.Stmt
	for p := 0; p < plan.passes; p++ {
		// Boundary scalars available before this pass.
		for _, n := range grp.Nodes {
			if plan.class[n] == classScalar && plan.bound[n] == p {
				flops += n.Kind.FlopsPerElement()
				if lw.dup[n] != nil {
					continue
				}
				e, err := nodeValueExpr(n, scalarValue)
				if err != nil {
					return nil, 0, err
				}
				rowBody = append(rowBody, kir.SSet{Var: local(n), Val: e})
			}
		}
		// Reduce accumulators of this pass.
		for _, n := range grp.Nodes {
			if plan.class[n] == classReduce && plan.pass[n] == p && lw.dup[n] == nil {
				_, id := reduceCombine(n.Reduce.Kind)
				rowBody = append(rowBody, kir.SSet{Var: "acc" + local(n), Val: kir.FConst(id)})
			}
		}
		// The j sweep.
		var sweep []kir.Stmt
		sweep = append(sweep, kir.SSetInt{
			Var: flatVar(p),
			Val: kir.Add(kir.Mul(kir.IVar("r"), lExpr), kir.IVar(jVar(p))),
		})
		for _, n := range grp.Nodes {
			vo := pointValue(p, n)
			switch plan.class[n] {
			case classPoint:
				if plan.pass[n] != p {
					continue
				}
				flops += n.Kind.FlopsPerElement()
				if lw.dup[n] == nil {
					e, err := nodeValueExpr(n, vo)
					if err != nil {
						return nil, 0, err
					}
					sweep = append(sweep, kir.SSet{Var: local(n), Val: e})
				}
				if slot, ok := plan.staged[n]; ok {
					sweep = append(sweep, kir.SStore{Buf: lw.nBufs + slot, Idx: kir.IVar(jVar(p)), Val: kir.FLocal(local(n))})
				}
				if buf, isOut := lw.bufIndex[n]; isOut && lw.isGroupOutput(n) {
					idx, err := lw.rowPointOutputIndex(n, flatVar(p))
					if err != nil {
						return nil, 0, err
					}
					sweep = append(sweep, kir.SStore{Buf: buf, Idx: idx, Val: kir.FLocal(local(canonical(lw.dup, n)))})
				}
			case classReduce:
				if plan.pass[n] != p {
					continue
				}
				flops++
				if lw.dup[n] != nil {
					continue
				}
				combine, _ := reduceCombine(n.Reduce.Kind)
				sweep = append(sweep, kir.SSet{
					Var: "acc" + local(n),
					Val: kir.FBin{Fn: combine, A: kir.FLocal("acc" + local(n)), B: vo(n.Inputs[0])},
				})
			}
		}
		rowBody = append(rowBody, kir.SLoop{Var: jVar(p), Extent: lExpr, Body: sweep, Flags: kir.LoopStride1})
		// Finalize reduces of this pass.
		for _, n := range grp.Nodes {
			if plan.class[n] == classReduce && plan.pass[n] == p && lw.dup[n] == nil {
				val := kir.Expr(kir.FLocal("acc" + local(n)))
				if n.Reduce.Kind == tensor.ReduceMean {
					val = kir.FBin{Fn: "div", A: val, B: kir.FCastInt{X: lExpr}}
				}
				rowBody = append(rowBody, kir.SSet{Var: local(n), Val: val})
			}
		}
	}
	// Trailing scalars (bound == passes) and scalar/reduce output stores.
	for _, n := range grp.Nodes {
		if plan.class[n] == classScalar && plan.bound[n] == plan.passes {
			flops += n.Kind.FlopsPerElement()
			if lw.dup[n] != nil {
				continue
			}
			e, err := nodeValueExpr(n, scalarValue)
			if err != nil {
				return nil, 0, err
			}
			rowBody = append(rowBody, kir.SSet{Var: local(n), Val: e})
		}
	}
	if valErr != nil {
		return nil, 0, valErr
	}
	for _, out := range grp.Outputs {
		if plan.class[out] == classPoint {
			continue // stored inside its pass
		}
		rowBody = append(rowBody, kir.SStore{Buf: lw.bufIndex[out], Idx: kir.IVar("r"), Val: kir.FLocal(local(canonical(lw.dup, out)))})
	}

	var bases []kir.Stmt
	for sl := 2; sl < len(domain); sl++ {
		if rowBases[sl] {
			prod := lw.numelExpr(domain[len(domain)-sl : len(domain)-1])
			bases = append(bases, kir.SSetInt{Var: rowBaseVar(sl), Val: kir.Mul(kir.Mod(kir.IVar("r"), prod), lExpr)})
		}
	}
	prog := &kir.Kernel{
		Name:       fmt.Sprintf("row_g%d%s", grp.ID, nameSuffix),
		NumBuffers: lw.nBufs + len(plan.staged),
		Body: []kir.Stmt{
			kir.SLoop{Var: "r", Extent: rExpr, Body: append(bases, rowBody...)},
		},
	}
	return prog, flops, nil
}

// isGroupOutput reports whether n is listed in the group outputs.
func (lw *lowerer) isGroupOutput(n *graph.Node) bool {
	for _, o := range lw.g.Outputs {
		if o == n {
			return true
		}
	}
	return false
}

// rowBaseVar names the per-row element base of a domain suffix of length sl.
func rowBaseVar(sl int) string { return fmt.Sprintf("rb%d", sl) }

// rowOperandIndex maps an external operand to its flat index at the current
// (r, j, flat) point inside a row kernel, resolving against the consumer's
// own shape when the operand does not relate to the domain directly.
// flatVar and jVar name the current pass's flat-index local and sweep
// variable. A domain-suffix operand (gamma, beta, a bias row) is indexed
// j, or its per-row base plus j (recorded in rowBases), rather than
// flat % K, so the sweep stays affine in j.
func (lw *lowerer) rowOperandIndex(op, consumer *graph.Node, flatVar, jVar string, rowBases map[int]bool) (kir.IntExpr, error) {
	domain := lw.g.Domain
	// Full row space or contiguous reindexing: use the flat index.
	if lw.ctx.ShapeEqual(op.Shape, domain) || lw.ctx.ProductEqual(op.Shape, domain) {
		return kir.IVar(flatVar), nil
	}
	// Per-row values ([rows...] or [rows..., 1]): index by r.
	if lw.isRowScalarShape(op) {
		return kir.IVar("r"), nil
	}
	// flat = r*L + j with j < L, so flat % (P*L) = (r % P)*L + j.
	if sl, ok := lw.suffixLen(op, consumer); ok {
		switch {
		case sl == 0:
			return kir.IConst(0), nil
		case sl == 1:
			return kir.IVar(jVar), nil
		case sl < len(domain):
			rowBases[sl] = true
			return kir.Add(kir.IVar(rowBaseVar(sl)), kir.IVar(jVar)), nil
		}
	}
	// Broadcast into the full domain (bias rows, scalars).
	if broadcastsInto(lw.ctx, op.Shape, domain) {
		return lw.operandIndex(flatVar, op.Shape, domain)
	}
	if consumer != nil &&
		(lw.ctx.ShapeEqual(consumer.Shape, domain) || lw.ctx.ProductEqual(consumer.Shape, domain)) {
		if idx, err := lw.operandIndex(flatVar, op.Shape, consumer.Shape); err == nil {
			return idx, nil
		}
	}
	return nil, fmt.Errorf("codegen: operand %%%d shape %s incompatible with row domain %s",
		op.ID, lw.ctx.String(op.Shape), lw.ctx.String(domain))
}

// rowScalarOperandIndex maps an external operand consumed by per-row scalar
// math: per-row shapes index by r; broadcast scalars by their own map.
func (lw *lowerer) rowScalarOperandIndex(op *graph.Node) (kir.IntExpr, error) {
	if lw.isRowScalarShape(op) {
		return kir.IVar("r"), nil
	}
	rowsShape := lw.g.Domain[:len(lw.g.Domain)-1]
	if broadcastsInto(lw.ctx, op.Shape, rowsShape) {
		return lw.operandIndex("r", op.Shape, rowsShape)
	}
	return nil, fmt.Errorf("codegen: operand %%%d shape %s not usable in per-row scalar math",
		op.ID, lw.ctx.String(op.Shape))
}

// isRowScalarShape reports whether n holds one value per row.
func (lw *lowerer) isRowScalarShape(n *graph.Node) bool {
	rows := lw.g.Domain[:len(lw.g.Domain)-1]
	return lw.ctx.NumelKey(n.Shape) == lw.ctx.NumelKey(rows)
}

// rowPointOutputIndex computes the store index for a per-point output.
func (lw *lowerer) rowPointOutputIndex(n *graph.Node, flatVar string) (kir.IntExpr, error) {
	domain := lw.g.Domain
	if lw.ctx.ShapeEqual(n.Shape, domain) || lw.ctx.ProductEqual(n.Shape, domain) {
		return kir.IVar(flatVar), nil
	}
	if broadcastsInto(lw.ctx, n.Shape, domain) {
		return lw.operandIndex(flatVar, n.Shape, domain)
	}
	return nil, fmt.Errorf("codegen: per-point output %%%d shape %s incompatible with domain %s",
		n.ID, lw.ctx.String(n.Shape), lw.ctx.String(domain))
}

// planRowPasses assigns every group node to a pass/boundary and decides
// scratch staging.
func (lw *lowerer) planRowPasses() (*rowPlan, error) {
	grp := lw.g
	inGroup := map[*graph.Node]bool{}
	for _, n := range grp.Nodes {
		inGroup[n] = true
	}
	plan := &rowPlan{
		class:  map[*graph.Node]nodeClass{},
		pass:   map[*graph.Node]int{},
		bound:  map[*graph.Node]int{},
		staged: map[*graph.Node]int{},
	}
	// Classify.
	for _, n := range grp.Nodes {
		switch {
		case n.Kind == graph.OpReduce:
			plan.class[n] = classReduce
		case lw.isRowScalarShape(n):
			plan.class[n] = classScalar
		default:
			plan.class[n] = classPoint
		}
	}
	// Assign passes/boundaries in topological (group node) order.
	maxPass := 0
	for _, n := range grp.Nodes {
		switch plan.class[n] {
		case classPoint:
			p := 0
			for _, op := range n.Inputs {
				if !inGroup[op] {
					continue
				}
				switch plan.class[op] {
				case classPoint:
					if plan.pass[op] > p {
						p = plan.pass[op]
					}
				default:
					if plan.bound[op] > p {
						p = plan.bound[op]
					}
				}
			}
			plan.pass[n] = p
			if p > maxPass {
				maxPass = p
			}
		case classReduce:
			op := n.Inputs[0]
			p := 0
			if inGroup[op] && plan.class[op] == classPoint {
				p = plan.pass[op]
			} else if inGroup[op] {
				return nil, fmt.Errorf("codegen: reduce %%%d input must be per-point", n.ID)
			}
			plan.pass[n] = p
			plan.bound[n] = p + 1
			if p > maxPass {
				maxPass = p
			}
		case classScalar:
			b := 0
			for _, op := range n.Inputs {
				if !inGroup[op] {
					continue
				}
				if plan.class[op] == classPoint {
					return nil, fmt.Errorf("codegen: per-row node %%%d cannot consume per-point value", n.ID)
				}
				if plan.bound[op] > b {
					b = plan.bound[op]
				}
			}
			plan.bound[n] = b
		}
	}
	plan.passes = maxPass + 1
	// Staging: a per-point node read in a later pass must live in scratch.
	// Duplicates are not lowered; their readers read the canonical member.
	for _, n := range grp.Nodes {
		if lw.dup[n] != nil {
			continue
		}
		for _, op := range n.Inputs {
			op = canonical(lw.dup, op)
			if !inGroup[op] || plan.class[op] != classPoint {
				continue
			}
			consumerPass := plan.pass[n] // valid for point and reduce consumers
			if plan.class[n] == classScalar {
				continue
			}
			if consumerPass > plan.pass[op] {
				if _, ok := plan.staged[op]; !ok {
					plan.staged[op] = len(plan.staged)
				}
			}
		}
	}
	return plan, nil
}
