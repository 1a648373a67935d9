package ral

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"godisc/internal/discerr"
)

func TestGovernorNilIsUngoverned(t *testing.T) {
	var g *Governor
	release, err := g.Reserve(context.Background(), 1<<40)
	if err != nil {
		t.Fatalf("nil governor rejected: %v", err)
	}
	release()
	if g.Budget() != 0 {
		t.Fatalf("nil governor budget = %d", g.Budget())
	}
	if NewGovernor(0) != nil || NewGovernor(-5) != nil {
		t.Fatal("non-positive budget should build a nil governor")
	}
}

func TestGovernorAccounting(t *testing.T) {
	g := NewGovernor(1000)
	r1, err := g.Reserve(context.Background(), 400)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Reserve(context.Background(), 600)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.ReservedBytes != 1000 || st.HighWaterBytes != 1000 || st.Grants != 2 {
		t.Fatalf("stats after two grants: %+v", st)
	}
	r1()
	r2()
	st = g.Stats()
	if st.ReservedBytes != 0 || st.HighWaterBytes != 1000 {
		t.Fatalf("stats after release: %+v", st)
	}
}

func TestGovernorFailFastOverBudget(t *testing.T) {
	g := NewGovernor(100)
	_, err := g.Reserve(context.Background(), 101)
	if !errors.Is(err, discerr.ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	if st := g.Stats(); st.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", st.Rejects)
	}
}

func TestGovernorBlocksThenGrantsFIFO(t *testing.T) {
	g := NewGovernor(100)
	r1, err := g.Reserve(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	wait := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := g.Reserve(context.Background(), 100)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			r()
		}()
	}
	// Waiter 2 starts only once waiter 1 is queued, so the FIFO order is
	// fixed by construction rather than by scheduling luck.
	wait(1)
	waitForWaits(t, g, 1)
	wait(2)
	waitForWaits(t, g, 2)
	r1()
	wg.Wait()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("grant order %d,%d; want FIFO 1,2", first, second)
	}
	if st := g.Stats(); st.ReservedBytes != 0 || st.HighWaterBytes != 100 {
		t.Fatalf("final stats: %+v", st)
	}
}

// waitForWaits polls until n reservations have queued on g.
func waitForWaits(t *testing.T, g *Governor, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("waits = %d, want %d", g.Stats().Waits, n)
		}
		runtime.Gosched()
	}
}

func TestGovernorWaitTimeout(t *testing.T) {
	g := NewGovernor(100)
	release, err := g.Reserve(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = g.Reserve(ctx, 50)
	if !errors.Is(err, discerr.ErrMemoryBudget) {
		t.Fatalf("timeout should wrap ErrMemoryBudget, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout should wrap the context error, got %v", err)
	}
	if st := g.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

func TestGovernorConcurrentNeverExceedsBudget(t *testing.T) {
	const budget = 512
	g := NewGovernor(budget)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				n := int64(32 + (i*j)%97)
				r, err := g.Reserve(context.Background(), n)
				if err != nil {
					t.Errorf("reserve %d: %v", n, err)
					return
				}
				r()
			}
		}(i)
	}
	wg.Wait()
	st := g.Stats()
	if st.ReservedBytes != 0 {
		t.Fatalf("leaked reservation: %+v", st)
	}
	if st.HighWaterBytes > budget {
		t.Fatalf("high water %d exceeded budget %d", st.HighWaterBytes, budget)
	}
}
