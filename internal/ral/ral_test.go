package ral

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"godisc/internal/discerr"
	"godisc/internal/faultinject"
)

func TestPoolReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("len=%d cap=%d", len(a), cap(a))
	}
	a[0] = 42
	p.Put(a)
	b := p.Get(120) // same class (128)
	if b[0] != 0 {
		t.Fatal("reused buffer must be zeroed")
	}
	st := p.Stats()
	if st.Allocs != 1 || st.Reuses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPoolDistinctClasses(t *testing.T) {
	p := NewPool()
	small := p.Get(10)
	p.Put(small)
	big := p.Get(1000)
	if cap(big) == cap(small) {
		t.Fatal("distinct classes must not share buffers")
	}
	st := p.Stats()
	if st.Allocs != 2 {
		t.Fatalf("allocs %d", st.Allocs)
	}
}

func TestPoolPeakTracking(t *testing.T) {
	p := NewPool()
	a := p.Get(64)
	b := p.Get(64)
	p.Put(a)
	p.Put(b)
	if st := p.Stats(); st.PeakElems < 128 {
		t.Fatalf("peak %d", st.PeakElems)
	}
}

func TestProfilerAccumulation(t *testing.T) {
	pr := NewProfiler()
	pr.Launch("k1", "vec4", 1000, 500, 2000)
	pr.Library("matmul", 4000, 8000, 9000)
	pr.Host(100)
	pr.Compile(1e6)
	if pr.Launches != 2 || pr.LibraryOps != 1 {
		t.Fatalf("launches=%d lib=%d", pr.Launches, pr.LibraryOps)
	}
	if pr.SimulatedNs != 2000+9000+100+1e6 {
		t.Fatalf("sim=%v", pr.SimulatedNs)
	}
	if pr.VariantHits["vec4"] != 1 {
		t.Fatalf("variants %v", pr.VariantHits)
	}
	other := NewProfiler()
	other.Launch("k1", "vec4", 1, 1, 1)
	pr.Add(other)
	if pr.Launches != 3 || pr.VariantHits["vec4"] != 2 {
		t.Fatal("Add must merge")
	}
	if !strings.Contains(pr.String(), "vec4:2") {
		t.Fatalf("String: %s", pr.String())
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	c := NewCache()
	calls := 0
	compile := func() (any, error) { calls++; return calls, nil }
	v1, hit1, err := c.AcquireOrCompile("a", compile)
	if err != nil || hit1 || v1 != 1 {
		t.Fatalf("first: %v %v %v", v1, hit1, err)
	}
	v2, hit2, err := c.AcquireOrCompile("a", compile)
	if err != nil || !hit2 || v2 != 1 {
		t.Fatalf("second: %v %v %v", v2, hit2, err)
	}
	if _, _, err := c.AcquireOrCompile("b", compile); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries := c.Stats()
	if hits != 1 || misses != 2 || entries != 2 {
		t.Fatalf("stats %d/%d/%d", hits, misses, entries)
	}
	// Every successful acquire — compile or hit — holds one pin.
	if c.Pins("a") != 2 || c.Pins("b") != 1 {
		t.Fatalf("pins a=%d b=%d, want 2 and 1", c.Pins("a"), c.Pins("b"))
	}
}

func TestCachePropagatesErrors(t *testing.T) {
	c := NewCache()
	wantErr := errors.New("boom")
	if _, _, err := c.AcquireOrCompile("x", func() (any, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if n := c.Pins("x"); n != 0 {
		t.Fatalf("failed compile must not pin: %d", n)
	}
	// Failed compiles are not cached.
	if _, hit, err := c.AcquireOrCompile("x", func() (any, error) { return 1, nil }); err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var calls int32
	started := make(chan struct{})
	release := make(chan struct{})
	compile := func() (any, error) {
		atomic.AddInt32(&calls, 1)
		close(started)
		<-release
		return "engine", nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]any, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.AcquireOrCompile("sig", compile)
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	<-started // one compilation is in flight
	release <- struct{}{}
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("compile ran %d times, want 1", got)
	}
	nHit := 0
	for i := range results {
		if results[i] != "engine" {
			t.Fatalf("result[%d] = %v", i, results[i])
		}
		if hits[i] {
			nHit++
		}
	}
	if nHit != waiters-1 {
		t.Fatalf("%d hits, want %d (everyone but the compiler)", nHit, waiters-1)
	}
	h, m, e := c.Stats()
	if h != waiters-1 || m != 1 || e != 1 {
		t.Fatalf("stats %d/%d/%d", h, m, e)
	}
	if n := c.Pins("sig"); n != waiters {
		t.Fatalf("%d pins, want one per caller (%d)", n, waiters)
	}
}

func TestCacheSingleflightErrorNotCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			_, _, errs[i] = c.AcquireOrCompile("k", func() (any, error) { return nil, boom })
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("errs[%d] = %v", i, err)
		}
	}
	// The failure was not cached: a later compile succeeds.
	if v, hit, err := c.AcquireOrCompile("k", func() (any, error) { return 7, nil }); err != nil || hit || v != 7 {
		t.Fatalf("retry: %v %v %v", v, hit, err)
	}
}

func TestSessionAccounting(t *testing.T) {
	p := NewPool()
	s := p.Session()
	a, err := s.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(32)
	if err != nil {
		t.Fatal(err)
	}
	if s.Outstanding() != 2 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
	s.Put(a)
	s.Put(b)
	s.Put(nil) // no-op
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding after release = %d", s.Outstanding())
	}
	// Buffers went back to the shared pool: a fresh session reuses them.
	s2 := p.Session()
	if _, err := s2.Get(64); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Reuses == 0 {
		t.Fatal("session buffers must return to the shared pool")
	}
}

// TestSessionAllocFault: an armed alloc site makes Session.Get fail with
// a transient error, without disturbing pool accounting.
func TestSessionAllocFault(t *testing.T) {
	p := NewPool()
	p.SetFaults(faultinject.New(1).Arm(faultinject.SiteAlloc, faultinject.ModeTransient, 1))
	s := p.Session()
	if _, err := s.Get(64); !errors.Is(err, discerr.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("failed alloc must not count as outstanding: %d", s.Outstanding())
	}
	// Disarming restores normal allocation.
	p.SetFaults(nil)
	buf, err := s.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(buf)
	if st := p.Stats(); st.InUseElems != 0 {
		t.Fatalf("in-use after release = %d", st.InUseElems)
	}
}
