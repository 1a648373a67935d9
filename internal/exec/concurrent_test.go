package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"godisc/internal/discerr"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/ral"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// buildServingModelGraph is a small transformer-ish block exercising
// kernels, a library matmul, stitched softmax (scratch rows) and liveness
// planning — the unit mix a serving engine dispatches concurrently.
func buildServingModelGraph(g *graph.Graph) {
	b := g.Ctx.NewDim("B")
	s := g.Ctx.NewDim("S")
	g.Ctx.DeclareRange(b, 1, 64)
	g.Ctx.DeclareRange(s, 1, 256)
	x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, g.Ctx.StaticDim(16)})
	w := g.Constant(tensor.RandN(tensor.NewRNG(7), 0.1, 16, 16))
	h := g.MatMul(x, w)
	g.SetOutputs(g.Softmax(g.Add(g.Relu(h), g.Tanh(x))))
}

// TestConcurrentRunMatchesReference drives one compiled executable from
// many goroutines with mixed dynamic shapes and checks every result
// against the reference interpreter; afterwards the shared pool must have
// zero buffers outstanding (run contexts release everything they draw).
func TestConcurrentRunMatchesReference(t *testing.T) {
	cg, ref := buildTwice(buildServingModelGraph)
	e := compile(t, cg, fusion.DefaultConfig())

	shapes := [][]int{{1, 3}, {2, 7}, {4, 16}, {8, 33}, {3, 5}, {1, 64}, {6, 12}, {2, 40}}
	type testCase struct {
		in   *tensor.Tensor
		want []*tensor.Tensor
	}
	r := tensor.NewRNG(11)
	cases := make([]testCase, len(shapes))
	for i, sh := range shapes {
		in := tensor.RandN(r, 1, sh[0], sh[1], 16)
		want, err := graph.Evaluate(ref, []*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = testCase{in: in, want: want}
	}

	const goroutines = 8
	const itersPerGoroutine = 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*itersPerGoroutine)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < itersPerGoroutine; it++ {
				tc := cases[(gi+it)%len(cases)]
				res, err := e.RunContext(context.Background(), []*tensor.Tensor{tc.in})
				if err != nil {
					errc <- err
					return
				}
				for oi := range tc.want {
					if err := tensor.AllClose(res.Outputs[oi], tc.want[oi], 1e-4, 1e-5); err != nil {
						errc <- fmt.Errorf("goroutine %d iter %d output %d: %w", gi, it, oi, err)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := e.Pool.Stats()
	if st.InUseElems != 0 {
		t.Fatalf("pool has %d elems outstanding after all runs", st.InUseElems)
	}
	if st.Allocs == 0 {
		t.Fatal("expected pooled allocations")
	}
	if st.Reuses == 0 {
		t.Fatal("concurrent steady-state runs must reuse pooled buffers")
	}
}

// TestSharedPoolAcrossEngines: two different engines drawing from one
// Options.Pool — how a server wires every engine it loads — run
// concurrently and stay bit-identical to the same graphs compiled with
// private pools. Afterwards the shared pool has nothing checked out, and
// steady-state runs of either engine reuse the other's freed buffers.
func TestSharedPoolAcrossEngines(t *testing.T) {
	shared := ral.NewPool()
	sharedOpts := DefaultOptions()
	sharedOpts.Pool = shared
	mk := func(build func(*graph.Graph), opts Options) *Executable {
		g := graph.New("shared-pool")
		build(g)
		return compileOpts(t, g, opts)
	}
	type model struct {
		private, shared *Executable
		input           func(r *tensor.RNG, i int) *tensor.Tensor
	}
	models := []model{
		{mk(buildServingModelGraph, DefaultOptions()), mk(buildServingModelGraph, sharedOpts),
			func(r *tensor.RNG, i int) *tensor.Tensor { return tensor.RandN(r, 1, 1+i%4, 1+(7*i)%40, 16) }},
		{mk(buildFootprintModel, DefaultOptions()), mk(buildFootprintModel, sharedOpts),
			func(r *tensor.RNG, i int) *tensor.Tensor { return tensor.RandN(r, 1, 1+(5*i)%64, 32) }},
	}
	for _, m := range models {
		if m.shared.Pool != shared || m.private.Pool == shared {
			t.Fatal("Options.Pool not honoured: engines must draw from the pool they were given")
		}
	}

	type testCase struct {
		m    model
		in   *tensor.Tensor
		want []*tensor.Tensor
	}
	r := tensor.NewRNG(5)
	var cases []testCase
	for i := 0; i < 12; i++ {
		m := models[i%len(models)]
		in := m.input(r, i)
		res, err := m.private.Run([]*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testCase{m: m, in: in, want: res.Outputs})
	}

	const goroutines = 8
	const itersPerGoroutine = 12
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < itersPerGoroutine; it++ {
				tc := cases[(gi+it)%len(cases)]
				res, err := tc.m.shared.RunContext(context.Background(), []*tensor.Tensor{tc.in})
				if err != nil {
					errc <- err
					return
				}
				for oi, want := range tc.want {
					if !bitEqual(res.Outputs[oi].F32(), want.F32()) {
						errc <- fmt.Errorf("goroutine %d iter %d output %d: shared-pool run differs from private-pool run", gi, it, oi)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := shared.Stats()
	if st.InUseElems != 0 {
		t.Fatalf("shared pool has %d elems outstanding after all runs", st.InUseElems)
	}
	if st.Reuses == 0 {
		t.Fatal("engines sharing a pool never reused a buffer")
	}
}

// TestRunContextCancellation: a cancelled context stops the run between
// units with ctx.Err(), and the aborted run leaks nothing from the pool.
func TestRunContextCancellation(t *testing.T) {
	cg, _ := buildTwice(buildServingModelGraph)
	e := compile(t, cg, fusion.DefaultConfig())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := tensor.RandN(tensor.NewRNG(3), 1, 2, 8, 16)
	if _, err := e.RunContext(ctx, []*tensor.Tensor{in}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.Pool.Stats(); st.InUseElems != 0 {
		t.Fatalf("cancelled run leaked %d elems", st.InUseElems)
	}
	// The engine still works after a cancelled run.
	if _, err := e.Run([]*tensor.Tensor{in}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCancellationMidRun: contexts cancelled at staggered points
// while a bert run is in flight stop it between units with ctx.Err(), leak
// nothing from the pool, and leave the engine serving the same bits.
func TestParallelCancellationMidRun(t *testing.T) {
	m, err := models.ByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	be := compile(t, m.Build(), fusion.DefaultConfig())
	ins := m.GenInputs(tensor.NewRNG(5), 8, 96)
	want, err := be.Run(ins)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for i := 1; i < 12; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(i)*150*time.Microsecond, cancel)
		_, err := be.RunContext(ctx, ins)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			// Cancel landed after completion: fine.
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
		if st := be.Pool.Stats(); st.InUseElems != 0 {
			t.Fatalf("iter %d: aborted run leaked %d elems", i, st.InUseElems)
		}
	}
	if cancelled == 0 {
		t.Fatal("no iteration observed a cancellation")
	}
	got, err := be.Run(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Outputs {
		if !bitEqual(got.Outputs[i].F32(), want.Outputs[i].F32()) {
			t.Fatalf("output %d differs after cancelled runs", i)
		}
	}
}

// TestRunShapeMismatchSentinel: invalid inputs surface as
// discerr.ErrShapeMismatch, so servers can branch with errors.Is.
func TestRunShapeMismatchSentinel(t *testing.T) {
	cg, _ := buildTwice(buildServingModelGraph)
	e := compile(t, cg, fusion.DefaultConfig())

	// Wrong arity.
	if _, err := e.Run(nil); !errors.Is(err, discerr.ErrShapeMismatch) {
		t.Fatalf("arity err = %v", err)
	}
	// Static dim violated (last dim must be 16).
	bad := tensor.RandN(tensor.NewRNG(1), 1, 2, 8, 17)
	if _, err := e.Run([]*tensor.Tensor{bad}); !errors.Is(err, discerr.ErrShapeMismatch) {
		t.Fatalf("static dim err = %v", err)
	}
	// Declared range violated (S <= 256).
	big := tensor.RandN(tensor.NewRNG(1), 1, 2, 300, 16)
	if _, err := e.Run([]*tensor.Tensor{big}); !errors.Is(err, discerr.ErrShapeMismatch) {
		t.Fatalf("range err = %v", err)
	}
}
