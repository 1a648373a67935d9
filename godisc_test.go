package godisc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"godisc/internal/tensor"
)

// buildPublicMLP builds a small model purely through the public API.
func buildPublicMLP() *Graph {
	g := NewGraph("mlp")
	b := g.Ctx.NewDim("B")
	x := g.Parameter("x", F32, Shape{b, g.Ctx.StaticDim(8)})
	w := g.Constant(RandN(1, 0.3, 8, 4))
	bias := g.Constant(RandN(2, 0.3, 4))
	g.SetOutputs(g.Relu(g.Add(g.MatMul(x, w), bias)))
	return g
}

func TestPublicCompileAndRun(t *testing.T) {
	eng, err := CompileWith(buildPublicMLP(), WithDevice(A10()))
	if err != nil {
		t.Fatal(err)
	}
	ref := buildPublicMLP()
	for _, batch := range []int{1, 7, 32} {
		in := RandN(uint64(batch), 1, batch, 8)
		res, err := eng.Run([]*Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(ref, []*Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		if err := AllClose(res.Outputs[0], want[0], 1e-5, 1e-6); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if res.Profile.Launches == 0 {
			t.Fatal("no launches recorded")
		}
	}
}

// TestDefaultEngineTimesEveryKernel: an engine compiled with default
// options times every kernel launch of every run into the profile, so
// Profile.KernelWallNs always measures the whole generated-kernel
// substrate of a served request.
func TestDefaultEngineTimesEveryKernel(t *testing.T) {
	for _, name := range []string{"bert", "mlp"} {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := CompileWith(m.Build())
		if err != nil {
			t.Fatal(err)
		}
		r := tensor.NewRNG(3)
		for _, p := range [][2]int{{1, 4}, {4, 33}, {8, 96}} {
			res, err := eng.Run(m.GenInputs(r, p[0], min(p[1], m.MaxSeq)))
			if err != nil {
				t.Fatal(err)
			}
			prof := res.Profile
			kernels := prof.Launches - prof.LibraryOps
			if kernels == 0 || prof.KernelRuns != kernels {
				t.Fatalf("%s %v: KernelRuns = %d, want %d kernel launches", name, p, prof.KernelRuns, kernels)
			}
			if prof.KernelWallNs <= 0 {
				t.Fatalf("%s %v: KernelWallNs = %v, want > 0", name, p, prof.KernelWallNs)
			}
		}
	}
}

func TestPublicOptionsAblation(t *testing.T) {
	full, err := CompileWith(buildPublicMLP())
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := CompileWith(buildPublicMLP(), WithoutFusion())
	if err != nil {
		t.Fatal(err)
	}
	if full.Kernels() >= unfused.Kernels() {
		t.Fatalf("fusion must reduce kernels: %d vs %d", full.Kernels(), unfused.Kernels())
	}
}

func TestPublicSignatureAndSummary(t *testing.T) {
	eng, err := CompileWith(buildPublicMLP())
	if err != nil {
		t.Fatal(err)
	}
	if sig := eng.Signature(); sig != "[d0,8]" {
		t.Fatalf("signature %q", sig)
	}
	if !strings.Contains(eng.PlanSummary(), "group") {
		t.Fatal("plan summary empty")
	}
}

func TestPublicSimulate(t *testing.T) {
	eng, err := CompileWith(buildPublicMLP(), WithDevice(T4()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Simulate([][]int{{128, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if p.SimulatedNs <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestPublicModelZoo(t *testing.T) {
	if len(Models()) != 7 {
		t.Fatalf("zoo size %d", len(Models()))
	}
	m, err := ModelByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := CompileWith(m.Build())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Kernels() == 0 {
		t.Fatal("empty plan")
	}
}

func TestPublicBaselineSuite(t *testing.T) {
	suite, err := NewBaselineSuite(buildPublicMLP, A10())
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 8 {
		t.Fatalf("suite size %d", len(suite))
	}
	in := RandN(3, 1, 4, 8)
	for name, s := range suite {
		if _, prof, err := s.Invoke([]*Tensor{in}); err != nil || prof.SimulatedNs <= 0 {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublicVerboseTrace(t *testing.T) {
	g := NewGraph("t")
	b := g.Ctx.NewDim("B")
	x := g.Parameter("x", F32, Shape{b})
	g.SetOutputs(g.Softmax(g.Add(x, Scalar0(g))))
	var lines []string
	_, err := CompileWith(g, WithVerbose(func(f string, a ...any) {
		lines = append(lines, f)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("verbose trace empty")
	}
}

// Scalar0 adds a zero constant through the graph (exercises simplify).
func Scalar0(g *Graph) *Node { return g.ConstScalar(0) }

func TestCompileRejectsInvalidGraphs(t *testing.T) {
	// No outputs.
	g := NewGraph("empty")
	b := g.Ctx.NewDim("B")
	g.Parameter("x", F32, Shape{b})
	if _, err := CompileWith(g); err == nil {
		t.Fatal("graph without outputs must fail to compile")
	}
}

func TestCompileAllAblationKnobs(t *testing.T) {
	opts := [][]Option{
		{WithoutStitch()},
		{WithoutHorizontalFusion()},
		{WithoutFusion()},
		{WithoutSpecialization()},
		{WithoutStitch(), WithoutSpecialization()},
	}
	in := RandN(1, 0.5, 3, 8)
	ref, err := Evaluate(buildPublicMLP(), []*Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range opts {
		eng, err := CompileWith(buildPublicMLP(), o...)
		if err != nil {
			t.Fatalf("opts %d: %v", i, err)
		}
		res, err := eng.Run([]*Tensor{in})
		if err != nil {
			t.Fatalf("opts %d: %v", i, err)
		}
		if err := AllClose(res.Outputs[0], ref[0], 1e-5, 1e-6); err != nil {
			t.Fatalf("opts %d: %v", i, err)
		}
	}
}

// TestRunContextPublic: context cancellation works through the public
// surface and surfaces as the context error.
func TestRunContextPublic(t *testing.T) {
	eng, err := CompileWith(buildPublicMLP())
	if err != nil {
		t.Fatal(err)
	}
	in := RandN(3, 1, 4, 8)
	res, err := eng.RunContext(context.Background(), []*Tensor{in})
	if err != nil || len(res.Outputs) != 1 {
		t.Fatalf("RunContext: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunContext(ctx, []*Tensor{in}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext: %v", err)
	}
}

// TestSentinelErrorsPublic: compile and shape failures branch with
// errors.Is on the exported sentinels.
func TestSentinelErrorsPublic(t *testing.T) {
	g := NewGraph("bad")
	g.Parameter("x", F32, Shape{g.Ctx.NewDim("B")})
	// No outputs: the pipeline rejects the graph.
	if _, err := CompileWith(g); !errors.Is(err, ErrCompileFailed) {
		t.Fatalf("compile err = %v, want ErrCompileFailed", err)
	}

	eng, err := CompileWith(buildPublicMLP())
	if err != nil {
		t.Fatal(err)
	}
	wrong := RandN(1, 1, 4, 9) // static dim is 8
	if _, err := eng.Run([]*Tensor{wrong}); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("run err = %v, want ErrShapeMismatch", err)
	}
}

// TestPublicServer drives the serving runtime end to end through the
// public API: register, warm, concurrent Infer, stats.
func TestPublicServer(t *testing.T) {
	srv := NewServer(ServerConfig{MaxConcurrent: 8}, WithDevice(A10()))
	if err := srv.Register("mlp", buildPublicMLP); err != nil {
		t.Fatal(err)
	}

	ref := buildPublicMLP()
	var wg sync.WaitGroup
	errc := make(chan error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch := 1 + i%5
			in := RandN(uint64(100+batch), 1, batch, 8)
			resp, err := srv.Infer(context.Background(), &Request{Model: "mlp", Inputs: []*Tensor{in}})
			if err != nil {
				errc <- err
				return
			}
			want, err := Evaluate(ref, []*Tensor{in})
			if err != nil {
				errc <- err
				return
			}
			if err := AllClose(resp.Outputs[0], want[0], 1e-4, 1e-5); err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Completed != 12 || st.Engines != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats: %s", st)
	}
	srv.Close()
	if _, err := srv.Infer(context.Background(), &Request{Model: "mlp"}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("after close: %v", err)
	}
}

// TestConcurrentEngineRunMatchesEvaluate runs one public Engine from 8
// goroutines with mixed dynamic shapes, checks every result against
// Evaluate, and asserts the shared buffer pool stays consistent (drains
// to zero outstanding buffers, reuses across runs).
func TestConcurrentEngineRunMatchesEvaluate(t *testing.T) {
	eng, err := CompileWith(buildPublicMLP())
	if err != nil {
		t.Fatal(err)
	}
	ref := buildPublicMLP()
	batches := []int{1, 2, 5, 9, 16, 23, 32, 48}
	inputs := make([]*Tensor, len(batches))
	wants := make([][]*Tensor, len(batches))
	for i, b := range batches {
		inputs[i] = RandN(uint64(200+b), 1, b, 8)
		want, err := Evaluate(ref, []*Tensor{inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8*6)
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				ci := (gi + it) % len(batches)
				res, err := eng.Run([]*Tensor{inputs[ci]})
				if err != nil {
					errc <- err
					return
				}
				if err := AllClose(res.Outputs[0], wants[ci][0], 1e-4, 1e-5); err != nil {
					errc <- err
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := eng.exe.Pool.Stats()
	if st.InUseElems != 0 {
		t.Fatalf("pool has %d elems outstanding after concurrent runs", st.InUseElems)
	}
	if st.Reuses == 0 {
		t.Fatal("steady-state concurrent serving must reuse pooled buffers")
	}
}
