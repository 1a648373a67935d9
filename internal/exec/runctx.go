package exec

import (
	"context"
	"fmt"

	"godisc/internal/obs"
	"godisc/internal/ral"
	"godisc/internal/tensor"
)

// runCtx is the mutable state of ONE invocation of an Executable. Every
// piece of per-run state — the value environment, pooled-buffer ownership,
// buffer reference counts, the profiler, the pool session — lives here and
// nowhere on the Executable, so one compiled engine can serve N goroutines
// concurrently: Run simply builds a fresh runCtx per call. The Executable
// itself is immutable after Compile (units, task list, shape program,
// constants, initial refcounts), and the shared Pool is internally locked.
// A runCtx is only ever touched by the goroutine that runs it.
//
// Values live in slot-indexed slices: each slot is written by exactly one
// task, read by tasks after it in plan order, and freed by the reader that
// drops its reference count to zero.
type runCtx struct {
	exe  *Executable
	ctx  context.Context
	done <-chan struct{}
	// vals is the evaluated shape-program slot array for this call's
	// concrete input shapes.
	vals []int64
	// env holds the flat buffer of every materialized value, by slot.
	env [][]float32
	// owned marks env slots whose buffers came from the pool and are still
	// held by this run.
	owned []bool
	// refs counts the remaining readers of each slot; the reader that
	// takes it to zero returns the buffer to the pool.
	refs []int32
	// sess is this run's pool session (per-run accounting over the
	// shared pool).
	sess *ral.Session
	// prof receives this run's profile.
	prof *ral.Profiler
	// span is this run's `exec` trace span (nil when observability is
	// off — the one branch executors pay per instrumentation point).
	span *obs.Span
}

// newRunCtx opens the per-call state for one invocation: parameters are
// flattened into their slots and constants are installed from the
// compile-time buffers.
func (e *Executable) newRunCtx(ctx context.Context, inputs []*tensor.Tensor, vals []int64) (*runCtx, error) {
	rc := &runCtx{
		exe:   e,
		ctx:   ctx,
		done:  ctx.Done(),
		vals:  vals,
		env:   make([][]float32, e.nSlots),
		owned: make([]bool, e.nSlots),
		refs:  make([]int32, e.nSlots),
		sess:  e.Pool.Session(),
		prof:  ral.NewProfiler(),
	}
	copy(rc.refs, e.refs0)
	for _, p := range e.paramRefs {
		buf, err := flatten(inputs[p.param])
		if err != nil {
			return nil, fmt.Errorf("exec: parameter %d: %w", p.param, err)
		}
		rc.env[p.slot] = buf
	}
	for _, c := range e.constRefs {
		rc.env[c.slot] = c.buf
	}
	return rc, nil
}

// cancelled reports the context error once the context is done; runTasks
// checks it between units.
func (rc *runCtx) cancelled() error {
	if rc.done == nil {
		return nil
	}
	select {
	case <-rc.done:
		return rc.ctx.Err()
	default:
		return nil
	}
}

// bufOf returns the buffer of slot s, which plan order guarantees was
// produced (or prefilled) before any reader runs.
func (rc *runCtx) bufOf(s int) ([]float32, error) {
	if b := rc.env[s]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("exec: slot %d not yet computed", s)
}

// setOwned installs a pooled buffer as slot s's value. Only the single
// producing task of s calls this.
func (rc *runCtx) setOwned(s int, buf []float32) {
	rc.env[s] = buf
	rc.owned[s] = true
}

// decRef drops one reader reference from slot s; the reference that hits
// zero returns the pooled buffer (if any).
func (rc *runCtx) decRef(s int) {
	rc.refs[s]--
	if rc.refs[s] != 0 {
		return
	}
	if rc.owned[s] {
		rc.sess.Put(rc.env[s])
		rc.owned[s] = false
		rc.env[s] = nil
	}
}

// release returns every pooled buffer this run still holds. It runs on
// every exit path (including cancellation and kernel errors), so one failed
// request can never leak pool memory from under concurrent ones.
func (rc *runCtx) release() {
	for s, own := range rc.owned {
		if own {
			rc.sess.Put(rc.env[s])
			rc.owned[s] = false
			rc.env[s] = nil
		}
	}
}
