package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"godisc/internal/faultinject"
	"godisc/internal/graph"
	"godisc/internal/randgraph"
	"godisc/internal/tensor"
)

// TestBatchDifferentialRandGraph is the batching correctness suite: over
// random dynamic-shape models, randomized batch compositions and batched
// servers admitting w concurrent executions, every batched response must be
// BIT-identical to the same request served solo by an identical pipeline.
// The symbolic cache key guarantees batch-1 and batch-N runs execute the
// same compiled engine, so any divergence here is a real row-dependence the
// batchability analysis failed to reject.
func TestBatchDifferentialRandGraph(t *testing.T) {
	seeds := []uint64{1, 2, 5, 11}
	slots := []int{1, 2, 4}
	for si, seed := range seeds {
		seed := seed
		w := slots[si%len(slots)]
		t.Run(fmt.Sprintf("seed%d_w%d", seed, w), func(t *testing.T) {
			t.Parallel()
			build := func() *graph.Graph { return randgraph.Build(seed, 6, 8) }
			if info := analyzeBatchable(build()); !info.ok {
				t.Fatalf("randgraph seed %d rejected by analysis: %s", seed, info.reason)
			}

			batched := New(Config{MaxConcurrent: w,
				MaxBatchSize: 32, MaxLinger: 100 * time.Millisecond}, realCompile(nil))
			defer batched.Close()
			solo := New(Config{MaxConcurrent: 8}, realCompile(nil))
			defer solo.Close()
			name := fmt.Sprintf("fuzz%d", seed)
			if err := batched.Register(name, build); err != nil {
				t.Fatal(err)
			}
			if err := solo.Register(name, build); err != nil {
				t.Fatal(err)
			}

			r := tensor.NewRNG(seed*77 + 13)
			for trial := 0; trial < 3; trial++ {
				// One concrete sequence length per trial: requests agree on
				// every non-batch dimension and are eligible to coalesce.
				s := 1 + r.Intn(6)
				n := 3 + r.Intn(4)
				reqs := make([][]*tensor.Tensor, n)
				for i := range reqs {
					reqs[i] = randgraph.Inputs(r, 1+r.Intn(4), s, 8)
				}

				var wg sync.WaitGroup
				resps := make([]*Response, n)
				errs := make([]error, n)
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						resps[i], errs[i] = batched.Infer(context.Background(),
							&Request{Model: name, Inputs: reqs[i]})
					}(i)
				}
				wg.Wait()

				for i := 0; i < n; i++ {
					if errs[i] != nil {
						t.Fatalf("trial %d request %d: %v", trial, i, errs[i])
					}
					want, err := solo.Infer(context.Background(),
						&Request{Model: name, Inputs: reqs[i]})
					if err != nil {
						t.Fatalf("trial %d solo reference %d: %v", trial, i, err)
					}
					for oi := range want.Outputs {
						bitsEqual(t, resps[i].Outputs[oi], want.Outputs[oi],
							fmt.Sprintf("trial %d request %d output %d (batch=%d)",
								trial, i, oi, resps[i].BatchSize))
					}
				}
			}
			// With a 100ms window and barrages of concurrent requests, at
			// least some coalescing must have happened — a batcher that
			// never batches would pass the identity check vacuously.
			if st := batched.Stats(); st.BatchedRequests == 0 {
				t.Fatal("no request was ever batched across all trials")
			}
		})
	}
}

// TestBatchDifferentialUnderFaults: batching composed with fault
// injection. Transient alloc faults are retried (on the solo path, after
// the batch hands members back) and kernel faults recover through the
// interpreter fallback — every request still succeeds, and every response
// that came from a compiled engine is bit-identical to the clean solo run.
func TestBatchDifferentialUnderFaults(t *testing.T) {
	inj := faultinject.New(31).Arm(faultinject.SiteAlloc, faultinject.ModeTransient, 0.15)
	batched := New(Config{MaxConcurrent: 8, MaxBatchSize: 16,
		MaxLinger: 60 * time.Millisecond}, faultyCompile(inj))
	defer batched.Close()
	solo := New(Config{MaxConcurrent: 8}, realCompile(nil))
	defer solo.Close()
	build := func() *graph.Graph { return randgraph.Build(3, 6, 8) }
	if err := batched.Register("fuzz3", build); err != nil {
		t.Fatal(err)
	}
	if err := solo.Register("fuzz3", build); err != nil {
		t.Fatal(err)
	}

	ref := build()
	r := tensor.NewRNG(99)
	const rounds, n = 4, 5
	for round := 0; round < rounds; round++ {
		s := 1 + r.Intn(5)
		reqs := make([][]*tensor.Tensor, n)
		for i := range reqs {
			reqs[i] = randgraph.Inputs(r, 1+r.Intn(3), s, 8)
		}
		var wg sync.WaitGroup
		resps := make([]*Response, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = batched.Infer(context.Background(),
					&Request{Model: "fuzz3", Inputs: reqs[i]})
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d request %d: %v", round, i, errs[i])
			}
			if resps[i].Fallback {
				// Interpreter recovery: correct, not bit-comparable to the
				// compiled engine — check against the reference evaluator.
				want, err := graph.Evaluate(ref, reqs[i])
				if err != nil {
					t.Fatal(err)
				}
				for oi := range want {
					if err := tensor.AllClose(resps[i].Outputs[oi], want[oi], 1e-4, 1e-5); err != nil {
						t.Fatalf("round %d request %d fallback output %d: %v", round, i, oi, err)
					}
				}
				continue
			}
			want, err := solo.Infer(context.Background(), &Request{Model: "fuzz3", Inputs: reqs[i]})
			if err != nil {
				t.Fatal(err)
			}
			for oi := range want.Outputs {
				bitsEqual(t, resps[i].Outputs[oi], want.Outputs[oi],
					fmt.Sprintf("round %d request %d output %d", round, i, oi))
			}
		}
	}
}
