// Package ral is the Runtime Abstraction Layer: the thin host runtime that
// compiled executables run on, mirroring BladeDISC's RAL. It owns device
// buffer management (a size-class pool with reuse), the launch profiler
// that the simulated device model charges into, and the compilation cache.
// Host-side shape computation is symshape.Binding, which RAL consumers use
// to size every intermediate buffer at invocation time.
package ral

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"godisc/internal/faultinject"
	"godisc/internal/obs"
)

// Pool is a size-class buffer pool for device allocations. Buffers are
// rounded up to powers of two and reused, so steady-state inference does
// not allocate — the BladeDISC RAL behaviour that keeps dynamic shapes from
// thrashing the device allocator.
type Pool struct {
	mu      sync.Mutex
	classes map[uint][][]float32

	// faults, when set, is probed at the alloc site by Session.Get so
	// transient RAL allocation failures are testable (see faultinject).
	faults atomic.Pointer[faultinject.Injector]

	// Stats (read via Stats()).
	allocs int
	reuses int
	inUse  int64
	peak   int64
}

// SetFaults installs (or clears, with nil) the pool's fault injector.
func (p *Pool) SetFaults(in *faultinject.Injector) { p.faults.Store(in) }

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{classes: map[uint][][]float32{}}
}

// class returns the size class (log2 of rounded capacity) for n elements.
func class(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// RoundElems reports the pooled capacity, in elements, that Get(n) books
// against the pool's accounting: buffers round up to power-of-two size
// classes. Footprint estimation (exec) uses it so memory reservations
// match the pool's own arithmetic exactly.
func RoundElems(n int) int64 { return int64(1) << class(n) }

// Get returns a buffer with len n (capacity the size class). Contents are
// zeroed.
func (p *Pool) Get(n int) []float32 {
	c := class(n)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inUse += int64(1) << c
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	free := p.classes[c]
	if len(free) > 0 {
		buf := free[len(free)-1]
		p.classes[c] = free[:len(free)-1]
		p.reuses++
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	p.allocs++
	return make([]float32, n, 1<<c)
}

// Put returns a buffer to the pool.
func (p *Pool) Put(buf []float32) {
	if buf == nil {
		return
	}
	c := class(cap(buf))
	if 1<<c != cap(buf) {
		// Foreign buffer (not from Get): adopt into the class below.
		c = uint(bits.Len(uint(cap(buf)))) - 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inUse -= int64(1) << c
	p.classes[c] = append(p.classes[c], buf[:cap(buf)])
}

// PoolStats is a snapshot of pool behaviour.
type PoolStats struct {
	Allocs    int
	Reuses    int
	PeakElems int64
	// InUseElems is the rounded element count currently checked out.
	// After every run has released its buffers it must be zero.
	InUseElems int64
}

// Stats returns a snapshot.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Allocs: p.allocs, Reuses: p.reuses, PeakElems: p.peak, InUseElems: p.inUse}
}

// Observe registers the pool's accounting as on-scrape gauges on reg.
// The pool's owner calls it once (a server observes its one pool, never
// the engines drawing from it): the registry keeps every callback, and
// whatever it closes over, for its own lifetime. Pools observed on one
// registry are summed into one series.
func (p *Pool) Observe(reg *obs.Registry, labels ...obs.Label) {
	if p == nil || reg == nil {
		return
	}
	reg.GaugeFunc("godisc_pool_allocs_total", func() float64 { return float64(p.Stats().Allocs) }, labels...)
	reg.GaugeFunc("godisc_pool_reuses_total", func() float64 { return float64(p.Stats().Reuses) }, labels...)
	reg.GaugeFunc("godisc_pool_in_use_elems", func() float64 { return float64(p.Stats().InUseElems) }, labels...)
	reg.GaugeFunc("godisc_pool_peak_elems", func() float64 { return float64(p.Stats().PeakElems) }, labels...)
}

// Session is a per-run view of a shared Pool: each invocation of an
// executable opens one, routes every Get/Put through it, and thereby keeps
// per-run bookkeeping (outstanding buffers, traffic) out of the shared
// pool. A Session belongs to exactly one run, which executes on one
// goroutine, so its counters need no synchronization.
type Session struct {
	pool *Pool
	gets int
	puts int
}

// Session opens a per-run handle on the pool.
func (p *Pool) Session() *Session { return &Session{pool: p} }

// Get draws a zeroed buffer of len n from the underlying pool. It fails
// only when the pool's fault injector fires at the alloc site — the
// simulated equivalent of a transient device-allocator error, which the
// serving layer's retry policy absorbs.
func (s *Session) Get(n int) ([]float32, error) {
	if err := s.pool.faults.Load().Check(faultinject.SiteAlloc); err != nil {
		return nil, fmt.Errorf("ral: alloc %d elems: %w", n, err)
	}
	s.gets++
	return s.pool.Get(n), nil
}

// Put returns a buffer drawn by this session to the underlying pool.
func (s *Session) Put(buf []float32) {
	if buf == nil {
		return
	}
	s.puts++
	s.pool.Put(buf)
}

// Outstanding reports buffers drawn but not yet returned. After a run has
// released everything it must be zero — the invariant the concurrency
// tests assert so that leaks in one request cannot starve the others.
func (s *Session) Outstanding() int { return s.gets - s.puts }

// Profiler accumulates the simulated execution profile of a run (or many).
type Profiler struct {
	Launches    int
	LibraryOps  int
	BytesMoved  float64
	Flops       float64
	SimulatedNs float64
	// HostNs charges per-op host/dispatch overheads (framework overhead in
	// eager baselines, RAL dispatch in compiled ones).
	HostNs float64
	// CompileNs charges compilation/tuning stalls (static compilers).
	CompileNs float64
	// VariantHits counts runtime variant selections by name.
	VariantHits map[string]int
	// PerKernel accumulates simulated time by kernel name.
	PerKernel map[string]float64
	// KernelWallNs accumulates real host wall-clock nanoseconds spent inside
	// compiled kernel programs (generated-kernel substrate only — library
	// calls excluded, so it measures exactly the code the kernel compiler
	// owns). Every kernel launch is timed.
	KernelWallNs float64
	// KernelRuns counts the kernel program invocations timed into
	// KernelWallNs.
	KernelRuns int
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{VariantHits: map[string]int{}, PerKernel: map[string]float64{}}
}

// Launch records one kernel launch.
func (pr *Profiler) Launch(kernel, variant string, bytes, flops, simNs float64) {
	pr.Launches++
	pr.BytesMoved += bytes
	pr.Flops += flops
	pr.SimulatedNs += simNs
	if variant != "" {
		pr.VariantHits[variant]++
	}
	pr.PerKernel[kernel] += simNs
}

// Library records one library (BLAS) call.
func (pr *Profiler) Library(name string, bytes, flops, simNs float64) {
	pr.Launches++
	pr.LibraryOps++
	pr.BytesMoved += bytes
	pr.Flops += flops
	pr.SimulatedNs += simNs
	pr.PerKernel[name] += simNs
}

// Host charges host-side overhead (dispatch, scheduling, guards).
func (pr *Profiler) Host(ns float64) {
	pr.HostNs += ns
	pr.SimulatedNs += ns
}

// Compile charges a compilation stall.
func (pr *Profiler) Compile(ns float64) {
	pr.CompileNs += ns
	pr.SimulatedNs += ns
}

// KernelWall records one timed kernel program invocation.
func (pr *Profiler) KernelWall(ns float64) {
	pr.KernelWallNs += ns
	pr.KernelRuns++
}

// Add merges another profile into pr.
func (pr *Profiler) Add(o *Profiler) {
	pr.Launches += o.Launches
	pr.LibraryOps += o.LibraryOps
	pr.BytesMoved += o.BytesMoved
	pr.Flops += o.Flops
	pr.SimulatedNs += o.SimulatedNs
	pr.HostNs += o.HostNs
	pr.CompileNs += o.CompileNs
	pr.KernelWallNs += o.KernelWallNs
	pr.KernelRuns += o.KernelRuns
	for k, v := range o.VariantHits {
		pr.VariantHits[k] += v
	}
	for k, v := range o.PerKernel {
		pr.PerKernel[k] += v
	}
}

// String renders a human-readable summary.
func (pr *Profiler) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "launches=%d (library=%d) bytes=%.3gMB flops=%.3gM sim=%.3gms host=%.3gms compile=%.3gms",
		pr.Launches, pr.LibraryOps, pr.BytesMoved/1e6, pr.Flops/1e6,
		pr.SimulatedNs/1e6, pr.HostNs/1e6, pr.CompileNs/1e6)
	if len(pr.VariantHits) > 0 {
		keys := make([]string, 0, len(pr.VariantHits))
		for k := range pr.VariantHits {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString(" variants={")
		for i, k := range keys {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%s:%d", k, pr.VariantHits[k])
		}
		sb.WriteString("}")
	}
	return sb.String()
}

// Cache is the compilation cache. BladeDISC keys it by *symbolic
// signature*, so one entry serves all concrete shapes; static compilers key
// by concrete shapes, paying one compilation per distinct shape tuple
// (experiment E9 contrasts the two). Concurrent misses on the same key are
// singleflight-deduplicated: one caller compiles, the rest wait and share
// the result — the property a serving frontend needs when a burst of first
// requests arrives for a model that is not compiled yet.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]any
	inflight map[string]*flightCall
	// pins counts in-flight runs holding each entry: a pinned entry can
	// never be evicted, which is what lets a fleet's LRU release an
	// engine's memory reservation without racing the runs using it.
	pins      map[string]int
	hits      int
	misses    int
	shared    int
	evictions int
}

// flightCall is one in-progress compilation that concurrent callers of the
// same key wait on.
type flightCall struct {
	done chan struct{}
	v    any
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		entries:  map[string]any{},
		inflight: map[string]*flightCall{},
		pins:     map[string]int{},
	}
}

// AcquireOrCompile returns the cached value for key, or invokes compile and
// stores the result. The boolean reports whether it was a hit. If another
// goroutine is already compiling the same key, the call blocks until that
// compilation finishes and shares its outcome (reported as a hit: this
// caller did not pay for a compilation). A failed compilation is not
// cached; the next request retries.
//
// On success the entry's pin count is incremented atomically with the
// lookup, so Evict cannot remove it until the caller's matching Unpin. A
// caller that only materializes the entry (a warm-up) unpins at once.
func (c *Cache) AcquireOrCompile(key string, compile func() (any, error)) (any, bool, error) {
	for {
		c.mu.Lock()
		if v, ok := c.entries[key]; ok {
			c.hits++
			c.pins[key]++
			c.mu.Unlock()
			return v, true, nil
		}
		fc, flying := c.inflight[key]
		if !flying {
			fc = &flightCall{done: make(chan struct{})}
			c.inflight[key] = fc
			c.misses++
			c.mu.Unlock()

			fc.v, fc.err = compile()
			c.mu.Lock()
			if fc.err == nil {
				c.entries[key] = fc.v
				c.pins[key]++
			}
			delete(c.inflight, key)
			c.mu.Unlock()
			close(fc.done)
			return fc.v, false, fc.err
		}
		c.shared++
		c.mu.Unlock()
		<-fc.done
		if fc.err != nil {
			return fc.v, true, fc.err
		}
		// The flight succeeded, but its entry may already have been
		// evicted in the gap before we could pin it; re-loop so lookup
		// and pin stay atomic.
		c.mu.Lock()
		if v, ok := c.entries[key]; ok {
			c.pins[key]++
			c.mu.Unlock()
			return v, true, nil
		}
		c.mu.Unlock()
	}
}

// Unpin releases one AcquireOrCompile pin.
func (c *Cache) Unpin(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.pins[key]; n > 1 {
		c.pins[key] = n - 1
	} else {
		delete(c.pins, key)
	}
}

// Pins reports the current pin count of key (0 when absent) — the
// eviction-safety invariant tests assert.
func (c *Cache) Pins(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pins[key]
}

// Evict removes key from the cache unless a run holds it pinned.
// evicted reports whether the entry was removed; pinned reports that the
// entry exists but is held by in-flight runs (the caller retries after
// they drain). An absent key returns (false, false).
func (c *Cache) Evict(key string) (evicted, pinned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		return false, false
	}
	if c.pins[key] > 0 {
		return false, true
	}
	delete(c.entries, key)
	c.evictions++
	return true, false
}

// Evictions counts successful Evict calls over the cache's lifetime.
func (c *Cache) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Stats returns (hits, misses, entries). A caller that waited on another
// goroutine's in-flight compilation counts as a hit; misses count started
// compilations, so misses == number of times the compile callback ran
// (successful or not).
func (c *Cache) Stats() (hits, misses, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits + c.shared, c.misses, len(c.entries)
}
