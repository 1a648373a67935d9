package serve

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godisc/internal/device"
	"godisc/internal/exec"
	"godisc/internal/faultinject"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/opt"
	"godisc/internal/tensor"
)

// soakDuration is ~1s by default so the soak runs inside the normal
// `go test -race ./internal/serve` gate; `make soak` stretches it to 30s
// via GODISC_SOAK.
func soakDuration(t *testing.T) time.Duration {
	if v := os.Getenv("GODISC_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("GODISC_SOAK: %v", err)
		}
		return d
	}
	return time.Second
}

// TestSoakGovernedOverload runs a randomized overload mix — all three
// priorities, tight and generous deadlines, kernel panics and transient
// alloc faults injected, a memory budget tighter than the offered
// concurrency — and checks the governance invariants hold for the whole
// run: the budget is never exceeded, nothing leaks, every failure maps
// to exactly one documented sentinel (or is a plain context error), and
// the rejection taxonomy partitions Rejected exactly.
func TestSoakGovernedOverload(t *testing.T) {
	const (
		slots    = 4
		clients  = 12
		maxBatch = 16
		seed     = 23
	)
	dur := soakDuration(t)

	// Panic is armed before latency: same-site rules fire in arming order,
	// and the always-on latency rule would otherwise mask it. The latency
	// keeps pool buffers held long enough that runs genuinely contend.
	inj := faultinject.New(seed).
		Arm(faultinject.SiteKernelLaunch, faultinject.ModePanic, 0.02).
		ArmLatency(faultinject.SiteKernelLaunch, faultinject.ModeLatency, 1, 500*time.Microsecond).
		Arm(faultinject.SiteAlloc, faultinject.ModeTransient, 0.02)

	var s *Server
	compile := func(g *graph.Graph) (Engine, error) {
		if _, err := opt.Default().Run(g); err != nil {
			return nil, err
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			return nil, err
		}
		eo := exec.DefaultOptions()
		eo.Governor = s.Governor()
		eo.Pool = s.BufferPool()
		eo.Faults = inj
		return exec.Compile(g, plan, device.A10(), eo)
	}

	// Size the budget from a probe compile of the same model: 3× the
	// largest request footprint, so four concurrent max-batch runs cannot
	// all reserve at once.
	pg := buildMLP()
	if _, err := opt.Default().Run(pg); err != nil {
		t.Fatal(err)
	}
	pplan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(pg)
	if err != nil {
		t.Fatal(err)
	}
	pexe, err := exec.Compile(pg, pplan, device.A10(), exec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	maxFp, err := pexe.FootprintBytes([][]int{{maxBatch, 12}})
	if err != nil {
		t.Fatal(err)
	}
	budget := 2 * maxFp
	t.Logf("soak: %v, budget %dB (2× max footprint %dB), fault seed %d", dur, budget, maxFp, seed)

	// The quota rides on a low-traffic side model so it fires without
	// dominating the mix; main-model traffic exercises queue/shed/budget.
	s = New(Config{
		MaxConcurrent:     slots,
		QueueDepth:        8,
		ModelQuotas:       map[string]int{"side": 1},
		MaxRetries:        2,
		RetryBackoff:      100 * time.Microsecond,
		BreakerThreshold:  3,
		BreakerCooldown:   5 * time.Millisecond,
		WatchdogMultiple:  8,
		WatchdogFloor:     25 * time.Millisecond,
		MemoryBudgetBytes: budget,
	}, compile)
	defer s.Close()
	s.BufferPool().SetFaults(inj)
	for _, name := range []string{"m", "side"} {
		if err := s.Register(name, buildMLP); err != nil {
			t.Fatal(err)
		}
		if err := s.Warm(name); err != nil {
			t.Fatal(err)
		}
	}

	// Budget sampler: live usage of the pool both models share must never
	// exceed the budget.
	stopSample := make(chan struct{})
	var worstOver atomic.Int64
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			used := 4 * s.BufferPool().Stats().InUseElems
			if used > budget && used > worstOver.Load() {
				worstOver.Store(used)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	deadline := time.Now().Add(dur)
	var completed, failedTaxonomy int64
	var taxMu sync.Mutex
	var firstBad error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			prios := []Priority{PriorityInteractive, PriorityBatch, PriorityBestEffort}
			for time.Now().Before(deadline) {
				batch := 1 + rng.Intn(maxBatch)
				in := tensor.RandN(tensor.NewRNG(uint64(batch)), 0.5, batch, 12)
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(4) {
				case 0: // tight deadline: infeasibility + cancels
					ctx, cancel = context.WithTimeout(ctx, time.Duration(2+rng.Intn(8))*time.Millisecond)
				case 1, 2: // generous deadline
					ctx, cancel = context.WithTimeout(ctx, 200*time.Millisecond)
				}
				model := "m"
				if rng.Intn(8) == 0 {
					model = "side"
				}
				_, err := s.Infer(ctx, &Request{
					Model:    model,
					Inputs:   []*tensor.Tensor{in},
					Priority: prios[rng.Intn(len(prios))],
				})
				cancel()
				if err == nil {
					atomic.AddInt64(&completed, 1)
					continue
				}
				// Clean taxonomy: exactly one documented sentinel, or a
				// plain context error with no sentinel at all.
				n := 0
				for _, sn := range sentinels {
					if errors.Is(err, sn.Err) {
						n++
					}
				}
				ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
				if n != 1 && !(n == 0 && ctxErr) {
					atomic.AddInt64(&failedTaxonomy, 1)
					taxMu.Lock()
					if firstBad == nil {
						firstBad = err
					}
					taxMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopSample)
	samplerWg.Wait()

	st := s.Stats()
	t.Logf("soak: %s", st)
	t.Logf("soak: injector fired %d times %v", inj.Total(), inj.Counts())

	if over := worstOver.Load(); over != 0 {
		t.Fatalf("pool usage %dB exceeded budget %dB during soak", over, budget)
	}
	if st.MemHighWaterBytes > budget {
		t.Fatalf("governor high water %dB exceeded budget %dB", st.MemHighWaterBytes, budget)
	}
	if st.MemReservedBytes != 0 {
		t.Fatalf("governor leaked %dB of reservations after drain", st.MemReservedBytes)
	}
	if ps := s.BufferPool().Stats(); ps.InUseElems != 0 {
		t.Fatalf("server pool holds %d elems after drain", ps.InUseElems)
	}
	if n := failedTaxonomy; n != 0 {
		t.Fatalf("%d errors escaped the taxonomy; first: %v", n, firstBad)
	}
	if got := st.Shed + st.QueueFullRejections + st.DeadlineInfeasible + st.QuotaRejections + st.MemoryRejections; got != st.Rejected {
		t.Fatalf("rejection reasons sum to %d, Rejected = %d", got, st.Rejected)
	}
	if st.Requests != st.Completed+st.Rejected+st.Canceled+st.Failed {
		t.Fatalf("request conservation broken: %s", st)
	}
	if st.Failed != 0 {
		t.Fatalf("engine faults must be absorbed (fallback/retry), not failed: %s", st)
	}
	if completed == 0 {
		t.Fatal("soak completed zero requests — load generator broken")
	}
	if st.FallbackRuns == 0 {
		t.Fatal("fault mix never exercised the interpreter fallback")
	}
}
