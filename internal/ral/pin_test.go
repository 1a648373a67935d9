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
