// Compile-time memory footprint estimation: how many pooled bytes can one
// run of this executable hold at once? The BladeDISC++ observation is that
// symbolic shapes make this answerable before any request arrives — the
// shape program already computes every buffer extent from the input dims,
// and the task list's refcounts say which buffers are alive together. The
// plan built here is evaluated per run (concrete dims bound by the shape
// program) to reserve against the ral.Governor before any allocation, and
// against declared dim ranges (symshape.UpperBound) for capacity planning.
//
// A run walks the tasks in plan order, so its peak is the max over tasks
// of (buffers alive during that task + its scratch rows).
//
// Sizes round to the pool's power-of-two classes (ral.RoundElems) so the
// reservation matches Pool accounting exactly, not just asymptotically.
package exec

import (
	"context"
	"fmt"
	"slices"

	"godisc/internal/ral"
	"godisc/internal/symshape"
)

// footprintPlan is the compile-time side of the estimate.
type footprintPlan struct {
	// slotRefs/slotDims describe each pooled slot's extent: the compiled
	// numel refs (runtime evaluation) and the symbolic shape (bound
	// evaluation). Nil entries are non-pooled slots (params, constants).
	slotRefs [][]dimRef
	slotDims []symshape.Shape
	// pooled lists the pooled slot ids.
	pooled []int
	// live[i] is the set of pooled slots held while task i runs in plan
	// order: previously produced buffers not yet freed by the refcount
	// plan, plus task i's own outputs.
	live [][]int32
}

// buildFootprint derives the plan from the task list and refcounts; called
// once at Compile, after buildSchedule.
func (e *Executable) buildFootprint() {
	fp := &footprintPlan{
		slotRefs: make([][]dimRef, e.nSlots),
		slotDims: make([]symshape.Shape, e.nSlots),
		live:     make([][]int32, len(e.tasks)),
	}
	for _, t := range e.tasks {
		for oi, sl := range t.outSlots {
			if fp.slotRefs[sl] == nil {
				fp.slotRefs[sl] = t.u.outShapeRefs[oi]
				fp.slotDims[sl] = t.u.group.Outputs[oi].Shape
				fp.pooled = append(fp.pooled, sl)
			}
		}
	}
	// Replay the run's refcount plan symbolically to capture which
	// pooled buffers coexist at each step.
	refs := append([]int32(nil), e.refs0...)
	held := map[int]bool{}
	for i, t := range e.tasks {
		for _, sl := range t.outSlots {
			held[sl] = true
		}
		snap := make([]int32, 0, len(held))
		for sl := range held {
			snap = append(snap, int32(sl))
		}
		slices.Sort(snap)
		fp.live[i] = snap
		if !e.opts.DisableLivenessPlanning {
			for _, sl := range t.reads {
				refs[sl]--
				if refs[sl] == 0 && fp.slotRefs[sl] != nil {
					delete(held, sl)
				}
			}
		}
	}
	e.fp = fp
}

// scratchRowElems evaluates the rounded scratch-row size of a task's
// kernel (the last domain extent) against the run's shape values.
func scratchRowElems(vals []int64, t *task) int64 {
	refs := t.u.domainRefs
	row := 0
	if n := len(refs); n > 0 {
		r := refs[n-1]
		if r.Slot < 0 {
			row = int(r.Static)
		} else {
			row = int(vals[r.Slot])
		}
	}
	return ral.RoundElems(row)
}

// footprintElems folds per-slot sizes and per-task scratch rows into the
// run's peak pooled element count: the max over plan steps.
func (e *Executable) footprintElems(sizes []int64, rowOf func(*task) int64) int64 {
	fp := e.fp
	if fp == nil {
		return 0
	}
	var peak int64
	for i, t := range e.tasks {
		var cur int64
		for _, sl := range fp.live[i] {
			cur += sizes[sl]
		}
		if k := t.u.kernel; k != nil && k.ScratchRows > 0 {
			cur += int64(k.ScratchRows) * rowOf(t)
		}
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// footprintBytes is the per-run reservation at concrete shape values.
func (e *Executable) footprintBytes(vals []int64) int64 {
	fp := e.fp
	if fp == nil {
		return 0
	}
	sizes := make([]int64, e.nSlots)
	for _, sl := range fp.pooled {
		sizes[sl] = ral.RoundElems(refsNumel(vals, fp.slotRefs[sl]))
	}
	elems := e.footprintElems(sizes, func(t *task) int64 { return scratchRowElems(vals, t) })
	return 4 * elems
}

// FootprintBytes reports the pooled-buffer reservation one run at the
// given concrete input shapes makes against a memory governor (0 when the
// graph allocates nothing). It is an upper bound on the pool's in-use
// high-water mark for that run, in the pool's own rounded accounting.
func (e *Executable) FootprintBytes(shapes [][]int) (int64, error) {
	vals, err := e.prog.Run(shapes)
	if err != nil {
		return 0, err
	}
	return e.footprintBytes(vals), nil
}

// MaxFootprintBytes bounds FootprintBytes over every admissible input
// shape, from the declared symbolic dim ranges — the capacity-planning
// number ("how much budget does one request of this engine ever need?").
// ok is false when some dimension has no declared upper bound.
func (e *Executable) MaxFootprintBytes() (int64, bool) {
	if e.maxFPSet {
		return e.maxFP, e.maxFPOK
	}
	fp := e.fp
	if fp == nil {
		return 0, true
	}
	ctx := e.Graph.Ctx
	boundNumel := func(s symshape.Shape) (int64, bool) {
		n := int64(1)
		for _, d := range s {
			b, ok := ctx.UpperBound(d)
			if !ok {
				return 0, false
			}
			if b > 0 && n > (int64(1)<<40)/b {
				return 0, false
			}
			n *= b
		}
		return n, true
	}
	sizes := make([]int64, e.nSlots)
	for _, sl := range fp.pooled {
		n, ok := boundNumel(fp.slotDims[sl])
		if !ok {
			return 0, false
		}
		sizes[sl] = ral.RoundElems(int(n))
	}
	rowOK := true
	rowOf := func(t *task) int64 {
		dom := t.u.group.Domain
		if len(dom) == 0 {
			return ral.RoundElems(0)
		}
		b, ok := ctx.UpperBound(dom[len(dom)-1])
		if !ok {
			rowOK = false
			return 0
		}
		return ral.RoundElems(int(b))
	}
	elems := e.footprintElems(sizes, rowOf)
	if !rowOK {
		return 0, false
	}
	return 4 * elems, true
}

// reserveFootprint blocks until the run's footprint fits under the
// governor's budget (or fails with discerr.ErrMemoryBudget). The returned
// release must run after the run's buffers are back in the pool.
func (e *Executable) reserveFootprint(ctx context.Context, vals []int64) (func(), error) {
	gov := e.opts.Governor
	if gov == nil {
		return func() {}, nil
	}
	need := e.footprintBytes(vals)
	release, err := gov.Reserve(ctx, need)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: %w", e.Graph.Name, err)
	}
	return release, nil
}
