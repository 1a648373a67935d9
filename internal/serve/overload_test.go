package serve

import (
	"context"
	"errors"
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

// governedCompile compiles for real with the server's governor and
// buffer pool threaded into the exec options — the production
// configuration — and a kernel-latency fault armed, so every run holds
// its pool buffers for a realistic service time (without the latency the
// tiny test kernels finish in microseconds and concurrent runs never
// actually overlap in the allocator). A non-nil exe captures the compiled
// executable so the test can size footprints.
func governedCompile(sp **Server, exe **exec.Executable, mu *sync.Mutex, kernelDelay time.Duration) CompileFunc {
	return func(g *graph.Graph) (Engine, error) {
		if _, err := opt.Default().Run(g); err != nil {
			return nil, err
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			return nil, err
		}
		eo := exec.DefaultOptions()
		eo.Governor = (*sp).Governor()
		eo.Pool = (*sp).BufferPool()
		eo.Faults = faultinject.New(11).
			ArmLatency(faultinject.SiteKernelLaunch, faultinject.ModeLatency, 1, kernelDelay)
		e, err := exec.Compile(g, plan, device.A10(), eo)
		if err != nil {
			return nil, err
		}
		if exe != nil {
			mu.Lock()
			*exe = e
			mu.Unlock()
		}
		return e, nil
	}
}

// TestOverloadBudgetAndPriorities is the acceptance check for resource
// governance: offered load 4× MaxConcurrent against a memory budget set
// to half the measured unbounded peak. The budget must never be
// exceeded (sampled live and via the governor's high-water mark),
// Interactive must see a strictly lower error rate than BestEffort, and
// every rejection must map to exactly one documented sentinel.
func TestOverloadBudgetAndPriorities(t *testing.T) {
	const (
		slots       = 4
		clients     = 16 // 4× MaxConcurrent offered concurrency
		perClient   = 12
		batch       = 8
		kernelDelay = time.Millisecond
	)
	in := tensor.RandN(tensor.NewRNG(9), 0.5, batch, 12)

	// runLoad hammers the server from `clients` goroutines. With
	// usePriorities set, clients are assigned Interactive/Batch/BestEffort
	// round-robin; reqs/errs are indexed by Priority+1.
	runLoad := func(s *Server, usePriorities bool) (reqs, errCounts [3]int64, errs []error) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				p := PriorityBatch
				if usePriorities {
					switch c % 3 {
					case 0:
						p = PriorityInteractive
					case 1:
						p = PriorityBatch
					case 2:
						p = PriorityBestEffort
					}
				}
				for i := 0; i < perClient; i++ {
					atomic.AddInt64(&reqs[p+1], 1)
					_, err := s.Infer(context.Background(),
						&Request{Model: "m", Inputs: []*tensor.Tensor{in}, Priority: p})
					if err != nil {
						atomic.AddInt64(&errCounts[p+1], 1)
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		return reqs, errCounts, errs
	}

	// Phase 1: no budget, generous queue — measure the unbounded pool peak
	// under full concurrency.
	var exeMu sync.Mutex
	var exe1 *exec.Executable
	var s1 *Server
	s1 = New(Config{MaxConcurrent: slots, QueueDepth: 64},
		governedCompile(&s1, &exe1, &exeMu, kernelDelay))
	if err := s1.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	if err := s1.Warm("m"); err != nil {
		t.Fatal(err)
	}
	if _, ec, errs := runLoad(s1, false); ec[PriorityBatch+1] != 0 {
		t.Fatalf("unbounded phase had %d errors, first: %v", ec[PriorityBatch+1], errs[0])
	}
	exeMu.Lock()
	unboundedPeakBytes := 4 * s1.BufferPool().Stats().PeakElems
	singleFp, fpErr := exe1.FootprintBytes([][]int{{batch, 12}})
	exeMu.Unlock()
	s1.Close()
	if fpErr != nil {
		t.Fatal(fpErr)
	}
	if unboundedPeakBytes < 2*singleFp {
		t.Fatalf("unbounded peak %dB never reached 2 concurrent runs (footprint %dB) — no overlap to constrain",
			unboundedPeakBytes, singleFp)
	}
	budget := unboundedPeakBytes / 2
	t.Logf("unbounded peak %dB, single-run footprint %dB, budget %dB", unboundedPeakBytes, singleFp, budget)

	// Phase 2: same load, mixed priorities, budget = half the unbounded
	// peak, tight queue so admission control has to work.
	var s2 *Server
	s2 = New(Config{MaxConcurrent: slots, QueueDepth: slots, MemoryBudgetBytes: budget},
		governedCompile(&s2, nil, nil, kernelDelay))
	if err := s2.Register("m", buildMLP); err != nil {
		t.Fatal(err)
	}
	if err := s2.Warm("m"); err != nil {
		t.Fatal(err)
	}

	// Live sampler: the server pool's in-use bytes must stay within budget
	// at every instant, not just at the high-water mark.
	stop := make(chan struct{})
	var worstOver atomic.Int64
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			used := 4 * s2.BufferPool().Stats().InUseElems
			if used > budget && used > worstOver.Load() {
				worstOver.Store(used)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	reqs, errCounts, errs := runLoad(s2, true)
	close(stop)
	samplerWg.Wait()

	if over := worstOver.Load(); over != 0 {
		t.Fatalf("sampled pool usage %dB exceeded budget %dB during overload", over, budget)
	}
	st := s2.Stats()
	t.Logf("governed: %s", st)
	if st.MemHighWaterBytes > budget {
		t.Fatalf("governor high water %dB exceeded budget %dB", st.MemHighWaterBytes, budget)
	}
	if st.MemHighWaterBytes == 0 {
		t.Fatal("governor never accounted a reservation")
	}
	if st.MemWaits == 0 {
		t.Fatal("budget at half peak must force reservation waits")
	}

	// Priority differentiation: Interactive strictly outperforms
	// BestEffort, and BestEffort actually got shed under this load.
	beReqs, beErrs := reqs[PriorityBestEffort+1], errCounts[PriorityBestEffort+1]
	intReqs, intErrs := reqs[PriorityInteractive+1], errCounts[PriorityInteractive+1]
	beRate := float64(beErrs) / float64(beReqs)
	intRate := float64(intErrs) / float64(intReqs)
	t.Logf("error rates: interactive %d/%d (%.2f), batch %d/%d, best-effort %d/%d (%.2f)",
		intErrs, intReqs, intRate,
		errCounts[PriorityBatch+1], reqs[PriorityBatch+1],
		beErrs, beReqs, beRate)
	if beErrs == 0 {
		t.Fatal("overload never rejected a best-effort request — load too light to mean anything")
	}
	if intRate >= beRate {
		t.Fatalf("interactive error rate %.3f not below best-effort %.3f", intRate, beRate)
	}
	if st.Shed == 0 {
		t.Fatal("priority shedding never fired under overload")
	}

	// Every rejection maps to exactly one documented sentinel.
	for _, err := range errs {
		n := 0
		for _, s := range sentinels {
			if errors.Is(err, s.Err) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("error %v matches %d sentinels, want exactly 1", err, n)
		}
	}

	// The rejection taxonomy partitions Rejected exactly, and nothing was
	// silently dropped: every offered request is accounted for.
	if got := st.Shed + st.QueueFullRejections + st.DeadlineInfeasible + st.QuotaRejections + st.MemoryRejections; got != st.Rejected {
		t.Fatalf("rejection reasons sum to %d, Rejected = %d", got, st.Rejected)
	}
	if st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("overload must reject cleanly, not fail: %s", st)
	}
	if ps := s2.BufferPool().Stats(); ps.InUseElems != 0 {
		t.Fatalf("server pool holds %d elems after the load drained", ps.InUseElems)
	}
	total := reqs[0] + reqs[1] + reqs[2]
	if st.Requests != total || st.Completed+st.Rejected != total {
		t.Fatalf("accounting: requests=%d completed=%d rejected=%d, offered %d",
			st.Requests, st.Completed, st.Rejected, total)
	}
	s2.Close()
}
