package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"godisc/internal/device"
	"godisc/internal/discerr"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/opt"
	"godisc/internal/ral"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// compileOpts is the footprint tests' compile helper with custom Options.
func compileOpts(t *testing.T, g *graph.Graph, opts Options) *Executable {
	t.Helper()
	if _, err := opt.Default().Run(g); err != nil {
		t.Fatal(err)
	}
	plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(g, plan, device.A10(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// buildFootprintModel is an MLP-ish pipeline with a reduction, ranged so
// MaxFootprintBytes has declared bounds to work with.
func buildFootprintModel(g *graph.Graph) {
	b := g.Ctx.NewDim("B")
	g.Ctx.DeclareRange(b, 1, 64)
	h := g.Ctx.StaticDim(32)
	x := g.Parameter("x", tensor.F32, symshape.Shape{b, h})
	w := g.Constant(tensor.RandN(tensor.NewRNG(3), 0.3, 32, 32))
	y := g.Relu(g.MatMul(x, w))
	g.SetOutputs(g.Softmax(g.Add(y, x)))
}

// requirePeakWithinFootprint runs e once on inputs from a fresh pool, so
// the pool's peak is this run's peak, and requires that peak to be at most
// the footprint reserved for the inputs' shapes.
func requirePeakWithinFootprint(t *testing.T, label string, e *Executable, inputs []*tensor.Tensor) {
	t.Helper()
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Shape()
	}
	fpBytes, err := e.FootprintBytes(shapes)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	e.Pool = ral.NewPool()
	if _, err := e.Run(inputs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	peak := e.Pool.Stats().PeakElems
	if peak == 0 {
		t.Fatalf("%s: pool never allocated", label)
	}
	if 4*peak > fpBytes {
		t.Fatalf("%s: pool peak %d elems (%d bytes) exceeds footprint %d bytes",
			label, peak, 4*peak, fpBytes)
	}
}

// TestFootprintCoversPoolPeak is the core soundness property: the
// compile-time footprint (evaluated at the run's concrete shapes) must be
// an upper bound on the pool's observed in-use peak for that run.
func TestFootprintCoversPoolPeak(t *testing.T) {
	g := graph.New("fp")
	buildFootprintModel(g)
	e := compileOpts(t, g, DefaultOptions())
	for _, batch := range []int{1, 7, 33, 64} {
		in := tensor.RandN(tensor.NewRNG(uint64(batch)), 1, batch, 32)
		requirePeakWithinFootprint(t, fmt.Sprintf("batch=%d", batch), e, []*tensor.Tensor{in})
	}
}

// TestFootprintCoversPoolPeakZoo checks the same bound on every zoo model
// at the ends of its declared ranges: all dynamic input dims at their
// minimum, then each one in turn at its maximum.
func TestFootprintCoversPoolPeakZoo(t *testing.T) {
	for _, m := range models.Registry() {
		g := m.Build()
		e := compile(t, g, fusion.DefaultConfig())
		ctx := g.Ctx
		// The distinct dynamic dims of the parameters, in first-use order.
		var dims []symshape.DimID
		seen := map[symshape.DimID]bool{}
		for _, p := range g.Params {
			for _, d := range p.Shape {
				if _, static := ctx.StaticValue(d); static || seen[ctx.Root(d)] {
					continue
				}
				seen[ctx.Root(d)] = true
				dims = append(dims, ctx.Root(d))
			}
		}
		inputsAt := func(maxed symshape.DimID) ([]*tensor.Tensor, string) {
			r := tensor.NewRNG(uint64(maxed) + 1)
			label := m.Name
			var ins []*tensor.Tensor
			for _, p := range g.Params {
				shape := make([]int, len(p.Shape))
				for i, d := range p.Shape {
					if v, ok := ctx.StaticValue(d); ok {
						shape[i] = int(v)
						continue
					}
					lo, hi := ctx.Range(d)
					if hi <= 0 {
						t.Fatalf("%s: dim %s has no declared range", m.Name, ctx.Name(d))
					}
					shape[i] = int(lo)
					if ctx.Root(d) == maxed {
						shape[i] = int(hi)
					}
				}
				if p.DType == tensor.F32 {
					ins = append(ins, tensor.RandN(r, 0.5, shape...))
				} else {
					ins = append(ins, tensor.New(p.DType, shape...))
				}
				label += fmt.Sprintf(" %s%v", p.Name, shape)
			}
			return ins, label
		}
		ins, label := inputsAt(-1)
		requirePeakWithinFootprint(t, label, e, ins)
		for _, d := range dims {
			ins, label := inputsAt(d)
			requirePeakWithinFootprint(t, label, e, ins)
		}
	}
}

func TestMaxFootprintBoundsEveryShape(t *testing.T) {
	g := graph.New("fpmax")
	buildFootprintModel(g)
	e := compileOpts(t, g, DefaultOptions())
	maxBytes, ok := e.MaxFootprintBytes()
	if !ok {
		t.Fatal("ranged model should have a max footprint")
	}
	for _, batch := range []int{1, 17, 64} {
		fp, err := e.FootprintBytes([][]int{{batch, 32}})
		if err != nil {
			t.Fatal(err)
		}
		if fp > maxBytes {
			t.Fatalf("batch %d footprint %d exceeds max %d", batch, fp, maxBytes)
		}
	}

	// Without a declared range the bound is unknowable.
	g2 := graph.New("fpunbounded")
	b := g2.Ctx.NewDim("B")
	x := g2.Parameter("x", tensor.F32, symshape.Shape{b, g2.Ctx.StaticDim(8)})
	g2.SetOutputs(g2.Relu(x))
	e2 := compileOpts(t, g2, DefaultOptions())
	if v, ok := e2.MaxFootprintBytes(); ok {
		t.Fatalf("unbounded model reported max footprint %d", v)
	}
}

func TestGovernorAdmitsAndAccountsRun(t *testing.T) {
	g := graph.New("fpgov")
	buildFootprintModel(g)
	opts := DefaultOptions()
	opts.Governor = ral.NewGovernor(1 << 20)
	e := compileOpts(t, g, opts)
	in := tensor.RandN(tensor.NewRNG(1), 1, 16, 32)
	if _, err := e.Run([]*tensor.Tensor{in}); err != nil {
		t.Fatal(err)
	}
	st := opts.Governor.Stats()
	if st.Grants == 0 || st.ReservedBytes != 0 {
		t.Fatalf("governor after run: %+v", st)
	}
	fp, err := e.FootprintBytes([][]int{{16, 32}})
	if err != nil {
		t.Fatal(err)
	}
	if st.HighWaterBytes != fp {
		t.Fatalf("high water %d != footprint %d", st.HighWaterBytes, fp)
	}
}

func TestGovernorRejectsOversizedRun(t *testing.T) {
	g := graph.New("fpreject")
	buildFootprintModel(g)
	opts := DefaultOptions()
	opts.Governor = ral.NewGovernor(64) // smaller than any run's buffers
	e := compileOpts(t, g, opts)
	in := tensor.RandN(tensor.NewRNG(1), 1, 16, 32)
	_, err := e.Run([]*tensor.Tensor{in})
	if !errors.Is(err, discerr.ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	if st := e.Pool.Stats(); st.InUseElems != 0 {
		t.Fatalf("rejected run leaked pool buffers: %+v", st)
	}
}

func TestGovernorBlockedRunHonoursDeadline(t *testing.T) {
	g := graph.New("fpblock")
	buildFootprintModel(g)
	opts := DefaultOptions()
	gov := ral.NewGovernor(1 << 20)
	opts.Governor = gov
	e := compileOpts(t, g, opts)

	// Occupy almost the whole budget so the run's reservation must wait,
	// then let the request deadline expire.
	hold, err := gov.Reserve(context.Background(), (1<<20)-16)
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	in := tensor.RandN(tensor.NewRNG(1), 1, 16, 32)
	_, err = e.RunContext(ctx, []*tensor.Tensor{in})
	if !errors.Is(err, discerr.ErrMemoryBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrMemoryBudget wrapping DeadlineExceeded, got %v", err)
	}
}
