package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godisc/internal/device"
	"godisc/internal/discerr"
	"godisc/internal/exec"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/opt"
	"godisc/internal/tensor"
)

// TestPrioritySheddingEvictsLowest: with the queue full, an arriving
// higher-priority request evicts the lowest-priority waiter instead of
// being rejected; the victim's error still wraps ErrQueueFull.
func TestPrioritySheddingEvictsLowest(t *testing.T) {
	stub := &stubEngine{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := stubServer(t, Config{MaxConcurrent: 1, QueueDepth: 1}, stub)
	defer close(stub.release)

	in, _ := mlpInput(t, 2)
	req := func(p Priority) *Request {
		return &Request{Model: "m", Inputs: []*tensor.Tensor{in}, Priority: p}
	}

	// Occupy the slot, then queue a best-effort request.
	running := make(chan error, 1)
	go func() { _, err := s.Infer(context.Background(), req(PriorityBatch)); running <- err }()
	<-stub.started
	shedErr := make(chan error, 1)
	go func() { _, err := s.Infer(context.Background(), req(PriorityBestEffort)); shedErr <- err }()
	waitFor(t, "best-effort queued", func() bool { return s.Stats().QueueDepth == 1 })

	// An interactive arrival must evict it.
	interactive := make(chan error, 1)
	go func() { _, err := s.Infer(context.Background(), req(PriorityInteractive)); interactive <- err }()

	err := <-shedErr
	if !errors.Is(err, discerr.ErrQueueFull) {
		t.Fatalf("shed victim error = %v, want ErrQueueFull", err)
	}
	stub.release <- struct{}{} // finish the running request
	if err := <-running; err != nil {
		t.Fatalf("running request: %v", err)
	}
	stub.release <- struct{}{} // let the interactive request run
	if err := <-interactive; err != nil {
		t.Fatalf("interactive request: %v", err)
	}
	st := s.Stats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1 (the shed victim)", st.Rejected)
	}
	s.Close()
}

// TestGrantOrderByPriority: freed slots go to the highest-priority waiter,
// not FIFO across classes.
func TestGrantOrderByPriority(t *testing.T) {
	stub := &stubEngine{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := stubServer(t, Config{MaxConcurrent: 1, QueueDepth: 3}, stub)

	in, _ := mlpInput(t, 2)
	var mu sync.Mutex
	var order []Priority
	launch := func(p Priority) {
		go func() {
			_, err := s.Infer(context.Background(),
				&Request{Model: "m", Inputs: []*tensor.Tensor{in}, Priority: p})
			if err != nil {
				t.Errorf("priority %v: %v", p, err)
				return
			}
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
		}()
	}

	launch(PriorityBatch) // occupies the slot
	<-stub.started
	// Queue worst-first so FIFO would be wrong.
	launch(PriorityBestEffort)
	waitFor(t, "queue=1", func() bool { return s.Stats().QueueDepth == 1 })
	launch(PriorityBatch)
	waitFor(t, "queue=2", func() bool { return s.Stats().QueueDepth == 2 })
	launch(PriorityInteractive)
	waitFor(t, "queue=3", func() bool { return s.Stats().QueueDepth == 3 })

	for i := 0; i < 4; i++ {
		stub.release <- struct{}{}
		n := i + 1
		waitFor(t, "completion", func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == n })
	}
	want := []Priority{PriorityBatch, PriorityInteractive, PriorityBatch, PriorityBestEffort}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range want {
		if order[i] != p {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
	s.Close()
}

// TestModelQuota: a model at its concurrency quota rejects with
// ErrQuotaExceeded while other models are unaffected.
func TestModelQuota(t *testing.T) {
	stub := &stubEngine{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := New(Config{MaxConcurrent: 4, ModelQuotas: map[string]int{"hot": 1}},
		func(*graph.Graph) (Engine, error) { return stub, nil })
	for _, name := range []string{"hot", "cold"} {
		if err := s.Register(name, buildMLP); err != nil {
			t.Fatal(err)
		}
		if err := s.Warm(name); err != nil {
			t.Fatal(err)
		}
	}
	in, _ := mlpInput(t, 2)

	done := make(chan error, 1)
	go func() {
		_, err := s.Infer(context.Background(), &Request{Model: "hot", Inputs: []*tensor.Tensor{in}})
		done <- err
	}()
	<-stub.started

	_, err := s.Infer(context.Background(), &Request{Model: "hot", Inputs: []*tensor.Tensor{in}})
	if !errors.Is(err, discerr.ErrQuotaExceeded) {
		t.Fatalf("second hot request: %v, want ErrQuotaExceeded", err)
	}
	// The other model still has the three remaining slots.
	coldDone := make(chan error, 1)
	go func() {
		_, err := s.Infer(context.Background(), &Request{Model: "cold", Inputs: []*tensor.Tensor{in}})
		coldDone <- err
	}()
	<-stub.started
	stub.release <- struct{}{}
	stub.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-coldDone; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.QuotaRejections != 1 || st.Rejected != 1 {
		t.Fatalf("quota=%d rejected=%d, want 1/1", st.QuotaRejections, st.Rejected)
	}
	s.Close()
}

// TestDeadlineInfeasibleRejection: once the latency estimator has
// samples, a queued-behind request whose remaining deadline is below the
// estimate is rejected up front instead of timing out later.
func TestDeadlineInfeasibleRejection(t *testing.T) {
	block := make(chan struct{})
	var blocked atomic.Bool
	eng := engineFunc(func(ctx context.Context, _ []*tensor.Tensor) (*exec.Result, error) {
		if blocked.Load() {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return okResult()
		}
		time.Sleep(20 * time.Millisecond)
		return okResult()
	})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4},
		func(*graph.Graph) (Engine, error) { return eng, nil })
	if err := s.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)

	// Seed the estimator: estMinSamples successful ~20ms runs.
	for i := 0; i < estMinSamples; i++ {
		if _, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}}); err != nil {
			t.Fatal(err)
		}
	}

	// Occupy the slot, then offer a request that cannot make its deadline
	// (estimate ≈ 2×20ms; deadline 5ms).
	blocked.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
		done <- err
	}()
	waitFor(t, "slot occupied", func() bool { return s.Stats().InFlight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := s.Infer(ctx, &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
	if !errors.Is(err, discerr.ErrDeadlineInfeasible) {
		t.Fatalf("tight-deadline request: %v, want ErrDeadlineInfeasible", err)
	}

	// A request with a generous deadline still queues normally.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	ok2 := make(chan error, 1)
	go func() {
		_, err := s.Infer(ctx2, &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
		ok2 <- err
	}()
	waitFor(t, "generous request queued", func() bool { return s.Stats().QueueDepth == 1 })
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-ok2; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DeadlineInfeasible != 1 || st.Rejected != 1 {
		t.Fatalf("infeasible=%d rejected=%d, want 1/1", st.DeadlineInfeasible, st.Rejected)
	}
	s.Close()
}

// TestWatchdogCancelsHungRun: after a signature builds latency history, a
// run that hangs is cancelled at the watchdog limit and recovered through
// the interpreter fallback.
func TestWatchdogCancelsHungRun(t *testing.T) {
	var calls int32
	eng := engineFunc(func(ctx context.Context, _ []*tensor.Tensor) (*exec.Result, error) {
		if int(atomic.AddInt32(&calls, 1)) <= watchdogMinSamples {
			time.Sleep(2 * time.Millisecond)
			return okResult()
		}
		<-ctx.Done() // hang until cancelled
		return nil, ctx.Err()
	})
	s := New(Config{MaxConcurrent: 2, WatchdogMultiple: 3, WatchdogFloor: 20 * time.Millisecond},
		func(*graph.Graph) (Engine, error) { return eng, nil })
	if err := s.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, want := mlpInput(t, 2)

	for i := 0; i < watchdogMinSamples; i++ {
		if _, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}}); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	resp, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
	if err != nil {
		t.Fatalf("hung run should be recovered by fallback, got %v", err)
	}
	if !resp.Fallback {
		t.Fatal("recovered response must be marked Fallback")
	}
	if err := tensor.AllClose(resp.Outputs[0], want[0], 1e-4, 1e-5); err != nil {
		t.Fatalf("fallback output: %v", err)
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", wait)
	}
	if st := s.Stats(); st.WatchdogCancels != 1 {
		t.Fatalf("WatchdogCancels = %d, want 1", st.WatchdogCancels)
	}
	s.Close()
}

// TestWatchdogErrorWithoutFallback: with fallback disabled the caller
// sees ErrHungRequest itself.
func TestWatchdogErrorWithoutFallback(t *testing.T) {
	var calls int32
	eng := engineFunc(func(ctx context.Context, _ []*tensor.Tensor) (*exec.Result, error) {
		if int(atomic.AddInt32(&calls, 1)) <= watchdogMinSamples {
			return okResult()
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s := New(Config{
		MaxConcurrent: 1, WatchdogMultiple: 2, WatchdogFloor: 10 * time.Millisecond,
		DisableFallback: true, MaxRetries: -1, BreakerThreshold: -1,
	}, func(*graph.Graph) (Engine, error) { return eng, nil })
	if err := s.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	for i := 0; i < watchdogMinSamples; i++ {
		if _, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
	if !errors.Is(err, discerr.ErrHungRequest) {
		t.Fatalf("want ErrHungRequest, got %v", err)
	}
	s.Close()
}

// TestUnregisterDropsWatchdogHistory: unregistering a model drops its
// signature's watchdog entry with the breaker, so version churn leaves no
// per-name residue and a re-registered model starts with no envelope.
func TestUnregisterDropsWatchdogHistory(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, WatchdogMultiple: 3},
		func(*graph.Graph) (Engine, error) {
			return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) { return okResult() }), nil
		})
	defer s.Close()
	if err := s.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	key, err := s.EngineKey("m")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	for i := 0; i < watchdogMinSamples; i++ {
		if _, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, armed := s.wd.limit(key); !armed {
		t.Fatal("watchdog not armed after warm-up runs")
	}
	if err := s.Unregister("m"); err != nil {
		t.Fatal(err)
	}
	s.wd.mu.Lock()
	n := len(s.wd.sigs)
	s.wd.mu.Unlock()
	if n != 0 {
		t.Fatalf("watchdog keeps %d entries after Unregister, want 0", n)
	}
	if err := s.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	if _, armed := s.wd.limit(key); armed {
		t.Fatal("re-registered model inherited the old watchdog envelope")
	}
}

// TestMemoryBudgetRejectionThroughServer: a server whose governor cannot
// fit a run's footprint rejects with ErrMemoryBudget — no retry, breaker
// penalty or fallback — and the rejection taxonomy records it.
func TestMemoryBudgetRejectionThroughServer(t *testing.T) {
	var s *Server
	s = New(Config{MaxConcurrent: 2, MemoryBudgetBytes: 64}, func(g *graph.Graph) (Engine, error) {
		if _, err := opt.Default().Run(g); err != nil {
			return nil, err
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			return nil, err
		}
		eo := exec.DefaultOptions()
		eo.Governor = s.Governor()
		return exec.Compile(g, plan, device.A10(), eo)
	})
	if err := s.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 8)
	_, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
	if !errors.Is(err, discerr.ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	st := s.Stats()
	if st.MemoryRejections != 1 || st.Rejected != 1 || st.FallbackRuns != 0 || st.Retries != 0 {
		t.Fatalf("stats after memory rejection: %+v", st)
	}
	if st.MemBudgetBytes != 64 {
		t.Fatalf("MemBudgetBytes = %d", st.MemBudgetBytes)
	}
	s.Close()
}

// TestQueueDepthNoneConstant pins the sentinel to the documented
// semantics: no queue, immediate rejection.
func TestQueueDepthNoneConstant(t *testing.T) {
	stub := &stubEngine{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := stubServer(t, Config{MaxConcurrent: 1, QueueDepth: QueueDepthNone}, stub)
	defer close(stub.release)
	in, _ := mlpInput(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
		done <- err
	}()
	<-stub.started
	_, err := s.Infer(context.Background(), &Request{Model: "m", Inputs: []*tensor.Tensor{in}})
	if !errors.Is(err, discerr.ErrQueueFull) {
		t.Fatalf("want immediate ErrQueueFull, got %v", err)
	}
	stub.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PeakQueueDepth != 0 {
		t.Fatalf("PeakQueueDepth = %d, want 0", st.PeakQueueDepth)
	}
	s.Close()
}
