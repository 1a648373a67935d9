package ral

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestCachePinBlocksEvict is the safety contract the fleet's LRU eviction
// rides on: an entry acquired (pinned) by an in-flight run refuses
// eviction, and becomes evictable the moment the last pin drops.
func TestCachePinBlocksEvict(t *testing.T) {
	c := NewCache()
	v, hit, err := c.AcquireOrCompile("m@sig", func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("first acquire: v=%v hit=%v err=%v", v, hit, err)
	}
	if n := c.Pins("m@sig"); n != 1 {
		t.Fatalf("acquire must pin: %d pins", n)
	}

	if evicted, pinned := c.Evict("m@sig"); evicted || !pinned {
		t.Fatalf("pinned entry must refuse eviction: evicted=%v pinned=%v", evicted, pinned)
	}
	if _, _, entries := c.Stats(); entries != 1 {
		t.Fatal("refused eviction must leave the entry resident")
	}

	// A second concurrent acquire stacks a second pin.
	if _, hit, _ := c.AcquireOrCompile("m@sig", func() (any, error) { return 0, nil }); !hit {
		t.Fatal("second acquire must hit")
	}
	c.Unpin("m@sig")
	if evicted, pinned := c.Evict("m@sig"); evicted || !pinned {
		t.Fatal("entry with one remaining pin must still refuse eviction")
	}
	c.Unpin("m@sig")

	if evicted, pinned := c.Evict("m@sig"); !evicted || pinned {
		t.Fatalf("unpinned entry must evict: evicted=%v pinned=%v", evicted, pinned)
	}
	if _, _, entries := c.Stats(); entries != 0 {
		t.Fatal("evicted entry must be gone")
	}
	if evicted, pinned := c.Evict("m@sig"); evicted || pinned {
		t.Fatal("evicting an absent key must report (false, false)")
	}
	if c.Evictions() != 1 {
		t.Fatalf("exactly one eviction recorded, got %d", c.Evictions())
	}

	// Post-eviction acquire recompiles and the entry is usable again.
	if _, hit, err := c.AcquireOrCompile("m@sig", func() (any, error) { return 43, nil }); hit || err != nil {
		t.Fatalf("post-eviction acquire must recompile: hit=%v err=%v", hit, err)
	}
	c.Unpin("m@sig")
}

// TestCacheAcquirePeek covers the fast path: peek pins only when the
// entry exists.
func TestCacheAcquirePeek(t *testing.T) {
	c := NewCache()
	if _, ok := c.AcquirePeek("missing"); ok {
		t.Fatal("peek of a missing key must not succeed")
	}
	if n := c.Pins("missing"); n != 0 {
		t.Fatalf("failed peek must not pin: %d", n)
	}
	c.AcquirePut("k", "engine")
	c.Unpin("k")
	v, ok := c.AcquirePeek("k")
	if !ok || v != "engine" {
		t.Fatalf("peek: %v %v", v, ok)
	}
	if n := c.Pins("k"); n != 1 {
		t.Fatalf("successful peek must pin: %d", n)
	}
	c.Unpin("k")
	if n := c.Pins("k"); n != 0 {
		t.Fatalf("unpin must drop to zero: %d", n)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("only the successful peek is a hit: hits=%d misses=%d", hits, misses)
	}
}

// TestCacheAcquirePut: the first binding of a key wins, every call returns
// the holder pinned, and an insert moves neither hits nor misses.
func TestCacheAcquirePut(t *testing.T) {
	c := NewCache()
	if v := c.AcquirePut("k", "first"); v != "first" {
		t.Fatalf("insert into an empty slot returned %v", v)
	}
	if v := c.AcquirePut("k", "rival"); v != "first" {
		t.Fatalf("second binding must lose: got %v", v)
	}
	if n := c.Pins("k"); n != 2 {
		t.Fatalf("both calls must pin the holder: %d pins", n)
	}
	if evicted, pinned := c.Evict("k"); evicted || !pinned {
		t.Fatalf("a put-pinned entry must refuse eviction: evicted=%v pinned=%v", evicted, pinned)
	}
	if hits, misses, entries := c.Stats(); hits != 0 || misses != 0 || entries != 1 {
		t.Fatalf("stats %d/%d/%d, want 0/0/1", hits, misses, entries)
	}
	c.Unpin("k")
	c.Unpin("k")
	// A compile-path lookup sees the put value as a plain hit.
	v, hit, err := c.AcquireOrCompile("k", func() (any, error) { return "compiled", nil })
	if err != nil || !hit || v != "first" {
		t.Fatalf("acquire after put: v=%v hit=%v err=%v", v, hit, err)
	}
	c.Unpin("k")
	if evicted, _ := c.Evict("k"); !evicted {
		t.Fatal("fully unpinned entry must evict")
	}
}

// TestCacheAcquirePutDuringFlight: an insert never joins an in-flight
// compilation of its key — it returns at once with its own value bound and
// pinned — and the flight, the compiler and its waiters alike, adopts that
// binding when it lands.
func TestCacheAcquirePutDuringFlight(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	type result struct {
		v   any
		hit bool
		err error
	}
	acquire := func(out chan<- result) {
		v, hit, err := c.AcquireOrCompile("k", func() (any, error) {
			close(started)
			<-release
			return "compiled", nil
		})
		out <- result{v, hit, err}
	}
	flyer := make(chan result, 1)
	go acquire(flyer)
	<-started
	waiter := make(chan result, 1)
	go acquire(waiter) // joins the flight (or, if late, hits the put binding)

	// The flight is parked on release: a blocking AcquirePut would hang here.
	if v := c.AcquirePut("k", "loaded"); v != "loaded" {
		t.Fatalf("insert during a flight returned %v", v)
	}
	if v, ok := c.AcquirePeek("k"); !ok || v != "loaded" {
		t.Fatalf("the binding must be visible before the flight lands: %v %v", v, ok)
	}
	close(release)
	for _, ch := range []chan result{flyer, waiter} {
		r := <-ch
		if r.err != nil || r.v != "loaded" {
			t.Fatalf("flight must adopt the first binding: %+v", r)
		}
	}
	if n := c.Pins("k"); n != 4 {
		t.Fatalf("put + peek + compiler + waiter = 4 pins, got %d", n)
	}
	if _, misses, entries := c.Stats(); misses != 1 || entries != 1 {
		t.Fatalf("misses=%d entries=%d, want 1 and 1", misses, entries)
	}
}

// TestCachePinRace hammers acquire/unpin/evict from many goroutines: the
// invariant is that Evict never returns evicted=true while any pin is
// outstanding, and the cache never deadlocks.
func TestCachePinRace(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _, err := c.AcquireOrCompile("k", func() (any, error) { return "e", nil })
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if v != "e" {
					t.Errorf("acquired %v", v)
					return
				}
				c.Unpin("k")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Evict("k")
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestGovernorTryReserve pins down the non-blocking reservation the fleet
// uses for its evict-then-retry loop.
func TestGovernorTryReserve(t *testing.T) {
	g := NewGovernor(100)
	rel1, ok := g.TryReserve(60)
	if !ok {
		t.Fatal("60/100 must fit")
	}
	if _, ok := g.TryReserve(50); ok {
		t.Fatal("60+50 exceeds the budget and must fail without blocking")
	}
	if _, ok := g.TryReserve(1000); ok {
		t.Fatal("over-budget single reservation must fail")
	}
	rel2, ok := g.TryReserve(40)
	if !ok {
		t.Fatal("60+40 fits exactly")
	}
	if st := g.Stats(); st.ReservedBytes != 100 {
		t.Fatalf("reserved: %+v", st)
	}
	rel1()
	rel2()
	if st := g.Stats(); st.ReservedBytes != 0 {
		t.Fatalf("releases must drain the ledger: %+v", st)
	}

	// TryReserve must also refuse to jump a blocked waiter queue: park a
	// blocking Reserve that cannot fit, then TryReserve something small.
	relBig, ok := g.TryReserve(90)
	if !ok {
		t.Fatal("90/100 must fit")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting := make(chan error, 1)
	go func() {
		rel, err := g.Reserve(ctx, 50)
		if err == nil {
			rel()
		}
		waiting <- err
	}()
	// Wait until the reserver is parked in the waiter queue (Waits counts
	// reservations that had to queue).
	deadline := time.Now().Add(2 * time.Second)
	for g.Stats().Waits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Reserve never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := g.TryReserve(5); ok {
		t.Fatal("TryReserve must not starve queued blocking waiters")
	}
	relBig()
	if err := <-waiting; err != nil {
		t.Fatalf("parked Reserve must be granted after release: %v", err)
	}
}

// TestGovernorTryReserveConcurrent checks the ledger never over-commits
// under concurrent TryReserve/release churn.
func TestGovernorTryReserveConcurrent(t *testing.T) {
	const budget = 64
	g := NewGovernor(budget)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			size := int64(8 + 8*(i%3))
			for j := 0; j < 500; j++ {
				if rel, ok := g.TryReserve(size); ok {
					rel()
				}
			}
		}(i)
	}
	wg.Wait()
	st := g.Stats()
	if st.ReservedBytes != 0 {
		t.Fatalf("ledger must drain: %+v", st)
	}
	if st.HighWaterBytes > budget {
		t.Fatalf("high water %d exceeded budget %d", st.HighWaterBytes, budget)
	}
}
