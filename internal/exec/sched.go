// Parallel execution engine: at compile time the fusion plan is turned
// into a task DAG (producer/consumer edges between units) with per-buffer
// reference counts replacing the index-ordered liveness plan; at run time
// a small worker pool launches tasks as their in-degrees drop to zero and
// splits large partitionable kernels into outer-loop ranges. The paper's
// RAL exists to extract hardware parallelism from fused kernels; this is
// the host-side analogue for the simulated device: multi-branch graphs use
// every core, single big kernels split by row/element range, and the
// result stays bit-identical to the sequential walk.
package exec

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"godisc/internal/discerr"
	"godisc/internal/faultinject"
	"godisc/internal/graph"
	"godisc/internal/obs"
	"godisc/internal/ral"
)

// DefaultWorkers resolves the default worker count for one run: the
// GODISC_WORKERS environment variable when set to a positive integer,
// otherwise GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv("GODISC_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerPool bounds helper goroutines across every run that shares it (one
// pool per serving process, so concurrent requests cannot oversubscribe
// cores). It is a token limiter, not a set of persistent threads: a run's
// coordinator goroutine always executes tasks itself and borrows helper
// tokens opportunistically, so a pool exhausted by other requests degrades
// a run toward sequential execution instead of ever blocking it.
type WorkerPool struct {
	tokens chan struct{}
}

// NewWorkerPool sizes a pool for n-way execution (the coordinator plus
// n-1 helper tokens). n < 1 means DefaultWorkers().
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = DefaultWorkers()
	}
	return &WorkerPool{tokens: make(chan struct{}, n-1)}
}

// Size reports the worker count the pool was sized for.
func (p *WorkerPool) Size() int { return cap(p.tokens) + 1 }

// Observe registers the pool's utilization gauges on reg: its sizing and
// how many helper tokens are currently borrowed by running requests.
func (p *WorkerPool) Observe(reg *obs.Registry, labels ...obs.Label) {
	if p == nil || reg == nil {
		return
	}
	reg.GaugeFunc("godisc_worker_pool_size", func() float64 { return float64(p.Size()) }, labels...)
	reg.GaugeFunc("godisc_worker_helpers_busy", func() float64 { return float64(len(p.tokens)) }, labels...)
}

// tryAcquire takes a helper token without blocking.
func (p *WorkerPool) tryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *WorkerPool) releaseToken() { <-p.tokens }

// task is one schedulable node of the compiled unit DAG (every non-alias
// unit). Alias units need no runtime action — the alias and its source
// share a slot — so they are resolved away at compile time.
type task struct {
	id int
	u  *unit
	// nDeps is the static in-degree: distinct producer tasks of this
	// task's inputs.
	nDeps int
	// outs lists dependent task ids whose in-degree drops when this task
	// completes.
	outs []int
	// inSlots/outSlots align with u.group.Inputs/Outputs (canonical slots).
	inSlots  []int
	outSlots []int
	// reads is the deduplicated slot set this task consumes; completing
	// the task drops one reference from each.
	reads []int
}

type paramRef struct{ slot, param int }

type constRef struct {
	slot int
	buf  []float32
}

// buildSchedule derives the task DAG and per-buffer reference counts from
// the fusion plan's producer/consumer edges. Replaces the old index-ordered
// freeAt plan: under out-of-order completion only a count of outstanding
// consumers frees buffers correctly.
func (e *Executable) buildSchedule() {
	// Aliases share their source's buffer: resolve every alias chain to
	// its root so the alias and its source are one slot.
	resolve := map[*graph.Node]*graph.Node{}
	for _, u := range e.units {
		if u.alias {
			resolve[u.group.Nodes[0]] = u.group.Nodes[0].Inputs[0]
		}
	}
	canon := func(n *graph.Node) *graph.Node {
		for {
			src, ok := resolve[n]
			if !ok {
				return n
			}
			n = src
		}
	}
	// slotOf numbers the canonical nodes; slotNodes lists them in slot
	// order, so everything derived from the slots below is deterministic.
	slotOf := map[*graph.Node]int{}
	var slotNodes []*graph.Node
	slot := func(n *graph.Node) int {
		n = canon(n)
		if s, ok := slotOf[n]; ok {
			return s
		}
		s := e.nSlots
		e.nSlots++
		slotOf[n] = s
		slotNodes = append(slotNodes, n)
		return s
	}
	producer := map[int]int{} // slot -> producing task id
	for _, u := range e.units {
		if u.alias {
			slot(u.group.Nodes[0])
			continue
		}
		t := &task{id: len(e.tasks), u: u}
		for _, in := range u.group.Inputs {
			t.inSlots = append(t.inSlots, slot(in))
		}
		for _, out := range u.group.Outputs {
			sl := slot(out)
			t.outSlots = append(t.outSlots, sl)
			producer[sl] = t.id
		}
		e.tasks = append(e.tasks, t)
	}
	for _, t := range e.tasks {
		depSeen := map[int]bool{}
		readSeen := map[int]bool{}
		for _, sl := range t.inSlots {
			if !readSeen[sl] {
				readSeen[sl] = true
				t.reads = append(t.reads, sl)
			}
			if p, ok := producer[sl]; ok && p != t.id && !depSeen[p] {
				depSeen[p] = true
				t.nDeps++
				e.tasks[p].outs = append(e.tasks[p].outs, t.id)
			}
		}
	}
	// Initial reference counts: one per consuming task plus one per graph
	// output (results must survive to the end of the run).
	e.refs0 = make([]int32, e.nSlots)
	for _, t := range e.tasks {
		for _, sl := range t.reads {
			e.refs0[sl]++
		}
	}
	for _, o := range e.Graph.Outputs {
		sl := slot(o)
		e.outputSlots = append(e.outputSlots, sl)
		e.refs0[sl]++
	}
	for sl, n := range slotNodes {
		switch n.Kind {
		case graph.OpParameter:
			e.paramRefs = append(e.paramRefs, paramRef{slot: sl, param: n.ParamIndex})
		case graph.OpConstant:
			e.constRefs = append(e.constRefs, constRef{slot: sl, buf: e.constBufs[n]})
		}
	}
}

// workItem is one queue entry: a whole task (cs == nil) or one partition
// chunk of a kernel launch.
type workItem struct {
	t      *task
	cs     *chunkState
	lo, hi int
}

// chunkState is the shared state of a partitioned kernel launch; the chunk
// that drops pending to zero finalizes the unit (combine step, cost
// charge, completion).
type chunkState struct {
	t       *task
	ln      *launch
	shard   *ral.Profiler
	span    *obs.Span // the unit's kernel span; ended at finalize
	chunks  int
	pending int32
}

// scheduler drives one parallel run. The ready queue is a LIFO stack under
// one mutex (depth-first: finish the current kernel's chunks before
// opening new units); the calling goroutine is the coordinator and always
// participates, so a run makes progress even when the shared pool has no
// spare tokens — the property that makes pool sharing deadlock-free across
// concurrent requests.
type scheduler struct {
	e          *Executable
	rc         *runCtx
	pool       *WorkerPool
	workers    int
	maxHelpers int
	sp         *ral.SharedProfiler

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []workItem
	inDeg     []int
	remaining int
	helpers   int
	err       error

	wg sync.WaitGroup
}

// runParallel executes the task DAG with up to `workers` goroutines
// (coordinator included). On any failure — kernel error, panic, fault
// injection, cancellation — the DAG is drained structurally: queued tasks
// become no-ops that still propagate completion, so every goroutine winds
// down and every pooled buffer is accounted for before returning.
func (e *Executable) runParallel(rc *runCtx, workers int, pool *WorkerPool) error {
	s := &scheduler{
		e:          e,
		rc:         rc,
		pool:       pool,
		workers:    workers,
		maxHelpers: workers - 1,
		sp:         ral.ShareProfiler(rc.prof),
		inDeg:      make([]int, len(e.tasks)),
		remaining:  len(e.tasks),
	}
	s.cond = sync.NewCond(&s.mu)
	var seed []workItem
	for _, t := range e.tasks {
		s.inDeg[t.id] = t.nDeps
		if t.nDeps == 0 {
			seed = append(seed, workItem{t: t})
		}
	}
	s.push(seed)
	s.runWorker(true)
	s.wg.Wait()
	return s.err
}

// push appends items (LIFO order) and recruits helpers up to min(queue
// length, maxHelpers, available pool tokens).
func (s *scheduler) push(items []workItem) {
	s.mu.Lock()
	s.queue = append(s.queue, items...)
	spawn := s.spawnCountLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.startHelpers(spawn)
}

func (s *scheduler) spawnCountLocked() int {
	spawn := 0
	for s.helpers+spawn < s.maxHelpers && s.helpers+spawn < len(s.queue) && s.pool.tryAcquire() {
		spawn++
	}
	s.helpers += spawn
	return spawn
}

func (s *scheduler) startHelpers(n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.runWorker(false)
			s.pool.releaseToken()
		}()
	}
}

// runWorker pops and executes items. Helpers exit as soon as the queue is
// momentarily empty (returning their token to the shared pool); the
// coordinator instead sleeps until new items arrive or the run completes.
func (s *scheduler) runWorker(coordinator bool) {
	for {
		s.mu.Lock()
		for coordinator && len(s.queue) == 0 && s.remaining > 0 {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			if !coordinator {
				s.helpers--
			}
			s.mu.Unlock()
			return
		}
		it := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.mu.Unlock()
		if it.cs != nil {
			s.execChunk(it)
		} else {
			s.execTask(it.t)
		}
	}
}

// fail records the run's first error; later tasks drain as no-ops.
func (s *scheduler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *scheduler) aborted() bool { return s.currentErr() != nil }

func (s *scheduler) currentErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func panicErr(r any) error {
	return fmt.Errorf("exec: recovered: %v: %w", r, discerr.ErrKernelPanic)
}

// execTask runs one unit. Kernel launches above the grain threshold are
// split into outer-loop range chunks (or per-worker partials for full
// reductions) that re-enter the queue; everything else runs inline. A
// panicking kernel fails the run but still completes the task so the DAG
// drains.
func (s *scheduler) execTask(t *task) {
	handedOff := false
	var sp *obs.Span
	defer func() {
		if r := recover(); r != nil {
			s.fail(panicErr(r))
			sp.End()
			if !handedOff {
				s.complete(t)
			}
		}
	}()
	if err := s.rc.cancelled(); err != nil {
		s.fail(err)
	}
	if s.aborted() {
		handedOff = true
		s.complete(t)
		return
	}
	if s.rc.span != nil {
		name, unit := t.spanInfo()
		sp = s.rc.span.Child(name, obs.A("unit", unit))
	}
	shard := ral.NewProfiler()
	if t.u.isLib {
		err := s.e.runLibrary(s.rc, t, shard)
		handedOff = true
		sp.End()
		s.finishTask(t, shard, err)
		return
	}
	ln, err := s.e.prepareKernel(s.rc, t)
	if err != nil {
		handedOff = true
		sp.End()
		s.finishTask(t, nil, err)
		return
	}
	if err := s.e.opts.Faults.Check(faultinject.SiteKernelLaunch); err != nil {
		handedOff = true
		sp.End()
		s.finishTask(t, nil, fmt.Errorf("exec: launching %s: %w", ln.k.Name, err))
		return
	}
	chunks := 1
	if ln.k.Partial != nil {
		if p := partialCount(ln.numel, ln.k.GrainPoints, s.workers); p > 1 {
			partials, err := s.rc.sess.Get(p)
			if err != nil {
				handedOff = true
				sp.End()
				s.finishTask(t, nil, err)
				return
			}
			ln.partials = partials
			ln.pbufs = append(append(make([][]float32, 0, len(ln.bufs)+1), ln.bufs...), partials)
			ln.pdims = append(append(make([]int, 0, len(ln.dims)+1), ln.dims...), p)
			ln.outer = p
			chunks = p
		}
	} else if ln.outer > 1 {
		chunks = chunkCount(ln.numel, ln.k.GrainPoints, ln.outer, s.workers)
	}
	if chunks <= 1 {
		err := s.e.runWholeKernel(s.rc, ln)
		if err == nil {
			s.e.chargeKernel(shard, ln, 1)
		}
		handedOff = true
		sp.End()
		s.finishTask(t, shard, err)
		return
	}
	handedOff = true
	s.launchChunks(t, ln, chunks, shard, sp)
}

// partialCount picks the number of per-worker partials for a full
// reduction: at most one per worker, and none unless each partial covers
// at least a grain of work (a tiny reduction is cheaper sequential).
func partialCount(numel, grain, workers int) int {
	if grain <= 0 || numel < 2*grain {
		return 1
	}
	return min(workers, numel/grain)
}

// chunkCount picks how many range chunks to split a kernel into: enough to
// spread across workers (with slack for imbalance), never finer than the
// grain size, never more than the outer extent.
func chunkCount(numel, grain, outer, workers int) int {
	if grain <= 0 {
		return 1
	}
	c := min(outer, numel/grain, 4*workers)
	if c < 2 {
		return 1
	}
	return c
}

// splitRange returns the half-open outer range of chunk i of n over extent.
func splitRange(extent, n, i int) (lo, hi int) {
	base, rem := extent/n, extent%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

func (s *scheduler) launchChunks(t *task, ln *launch, chunks int, shard *ral.Profiler, sp *obs.Span) {
	cs := &chunkState{t: t, ln: ln, shard: shard, span: sp, chunks: chunks, pending: int32(chunks)}
	items := make([]workItem, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := splitRange(ln.outer, chunks, i)
		items[i] = workItem{cs: cs, lo: lo, hi: hi}
	}
	s.push(items)
}

// execChunk runs one partition chunk. Cancellation is checked here — at
// partition granularity — so a deadline takes effect mid-kernel, not just
// between units. The chunk that drops pending to zero finalizes the unit.
func (s *scheduler) execChunk(it workItem) {
	cs := it.cs
	settled := false
	defer func() {
		if r := recover(); r != nil {
			s.fail(panicErr(r))
			if !settled && atomic.AddInt32(&cs.pending, -1) == 0 {
				s.finalizeChunks(cs)
			}
		}
	}()
	if err := s.rc.cancelled(); err != nil {
		s.fail(err)
	} else if !s.aborted() {
		var csp *obs.Span
		if cs.span != nil {
			csp = cs.span.Child("partition", obs.A("range", fmt.Sprintf("%d:%d", it.lo, it.hi)))
		}
		if err := s.e.runChunk(s.rc, cs.ln, it.lo, it.hi); err != nil {
			s.fail(err)
		}
		csp.End()
	}
	settled = true
	if atomic.AddInt32(&cs.pending, -1) == 0 {
		s.finalizeChunks(cs)
	}
}

// finalizeChunks completes a partitioned launch: the combine step for
// partial reductions, the cost charge (identical to a sequential launch —
// the simulated device already runs the kernel "in parallel"; partitioning
// buys host wall-clock, not simulated time), and task completion.
func (s *scheduler) finalizeChunks(cs *chunkState) {
	done := false
	defer func() {
		if r := recover(); r != nil {
			s.fail(panicErr(r))
			if !done {
				s.complete(cs.t)
			}
		}
	}()
	ln := cs.ln
	err := s.currentErr()
	if err == nil && ln.partials != nil {
		outBuf := ln.bufs[len(cs.t.u.group.Inputs)]
		err = ln.k.Partial.Combine.Run([][]float32{ln.partials, outBuf}, []int{len(ln.partials)})
	}
	if ln.partials != nil {
		s.rc.sess.Put(ln.partials)
		ln.partials = nil
	}
	if err == nil {
		s.e.chargeKernel(cs.shard, ln, cs.chunks)
		s.sp.Merge(cs.shard)
	} else {
		s.fail(err)
	}
	cs.span.End()
	done = true
	s.complete(cs.t)
}

// finishTask merges the task's profile shard (on success), records any
// error, and completes the task.
func (s *scheduler) finishTask(t *task, shard *ral.Profiler, err error) {
	if err != nil {
		s.fail(err)
	} else if shard != nil {
		s.sp.Merge(shard)
	}
	s.complete(t)
}

// complete drops this task's buffer references, releases dependents whose
// in-degree hits zero, and wakes the coordinator. Runs for every task on
// every path (success, failure, abort drain) exactly once.
func (s *scheduler) complete(t *task) {
	s.e.mTasks.Inc()
	if !s.e.opts.DisableLivenessPlanning {
		for _, sl := range t.reads {
			s.rc.decRef(sl)
		}
	}
	var ready []workItem
	s.mu.Lock()
	for _, d := range t.outs {
		s.inDeg[d]--
		if s.inDeg[d] == 0 {
			ready = append(ready, workItem{t: s.e.tasks[d]})
		}
	}
	s.remaining--
	s.queue = append(s.queue, ready...)
	spawn := s.spawnCountLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.startHelpers(spawn)
}
