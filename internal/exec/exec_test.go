package exec

import (
	"math"
	"testing"

	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/opt"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// compile optimizes, plans and compiles a graph with the given fusion
// config.
func compile(t testing.TB, g *graph.Graph, fcfg fusion.Config) *Executable {
	t.Helper()
	if _, err := opt.Default().Run(g); err != nil {
		t.Fatal(err)
	}
	plan, err := fusion.NewPlanner(fcfg).Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(g, plan, device.A10(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkAgainstReference runs the compiled executable and the reference
// interpreter on the same inputs and compares outputs. It returns the
// profile for further assertions.
func checkAgainstReference(t *testing.T, e *Executable, ref *graph.Graph, inputs []*tensor.Tensor) *Result {
	t.Helper()
	res, err := e.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.Evaluate(ref, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != len(want) {
		t.Fatalf("output count %d vs %d", len(res.Outputs), len(want))
	}
	for i := range want {
		if err := tensor.AllClose(res.Outputs[i], want[i], 1e-4, 1e-5); err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
	}
	return res
}

// bitEqual compares two f32 buffers exactly (NaN-safe: identical bit
// patterns compare equal).
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// requireBitIdentical runs both engines on the same inputs and fails on
// any bitwise difference.
func requireBitIdentical(t *testing.T, want, got *Executable, inputs []*tensor.Tensor, label string) {
	t.Helper()
	w, err := want.Run(inputs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	g, err := got.Run(inputs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(g.Outputs) != len(w.Outputs) {
		t.Fatalf("%s: output count %d vs %d", label, len(g.Outputs), len(w.Outputs))
	}
	for i := range w.Outputs {
		if !bitEqual(g.Outputs[i].F32(), w.Outputs[i].F32()) {
			t.Fatalf("%s: output %d differs bit-for-bit", label, i)
		}
	}
}

// buildTwice builds the same model into two graphs (one compiled, one kept
// as reference).
func buildTwice(build func(g *graph.Graph)) (*graph.Graph, *graph.Graph) {
	a := graph.New("compiled")
	build(a)
	b := graph.New("reference")
	build(b)
	return a, b
}

func TestCompiledElementwiseChain(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, g.Ctx.StaticDim(8)})
		g.SetOutputs(g.Relu(g.Add(g.Exp(x), g.Tanh(x))))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(1)
	for _, shape := range [][]int{{1, 1, 8}, {2, 5, 8}, {4, 33, 8}} {
		in := tensor.RandN(r, 1, shape...)
		checkAgainstReference(t, e, ref, []*tensor.Tensor{in})
	}
}

func TestCompiledSoftmax(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		l := g.Ctx.NewDim("L")
		g.Ctx.DeclareRange(l, 1, 2048)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, l})
		g.SetOutputs(g.Softmax(x))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(2)
	for _, shape := range [][]int{{1, 3}, {4, 17}, {2, 256}} {
		in := tensor.RandN(r, 1, shape...)
		res := checkAgainstReference(t, e, ref, []*tensor.Tensor{in})
		// Stitched softmax must be a single launch.
		if res.Profile.Launches != 1 {
			t.Fatalf("stitched softmax launches = %d", res.Profile.Launches)
		}
	}
}

func TestCompiledLayerNorm(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		g.Ctx.DeclareRange(s, 1, 512)
		h := g.Ctx.StaticDim(16)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, h})
		rr := tensor.NewRNG(7)
		gamma := g.Constant(tensor.RandN(rr, 1, 16))
		beta := g.Constant(tensor.RandN(rr, 1, 16))
		g.SetOutputs(g.LayerNorm(x, gamma, beta, 1e-5))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(3)
	for _, shape := range [][]int{{1, 2, 16}, {3, 9, 16}} {
		in := tensor.RandN(r, 1, shape...)
		checkAgainstReference(t, e, ref, []*tensor.Tensor{in})
	}
}

func TestCompiledMLPWithMatmul(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(8)})
		rr := tensor.NewRNG(4)
		w1 := g.Constant(tensor.RandN(rr, 0.3, 8, 12))
		b1 := g.Constant(tensor.RandN(rr, 0.3, 12))
		w2 := g.Constant(tensor.RandN(rr, 0.3, 12, 4))
		h := g.Gelu(g.Add(g.MatMul(x, w1), b1))
		g.SetOutputs(g.MatMul(h, w2))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(5)
	for _, batch := range []int{1, 6, 32} {
		in := tensor.RandN(r, 1, batch, 8)
		res := checkAgainstReference(t, e, ref, []*tensor.Tensor{in})
		// 2 library calls + 1 fused elementwise tail.
		if res.Profile.Launches != 3 {
			t.Fatalf("launches = %d, want 3", res.Profile.Launches)
		}
	}
}

func TestCompiledAttentionHead(t *testing.T) {
	// Scaled dot-product attention with dynamic batch and sequence length:
	// exercises matmul, transpose, stitched softmax, broadcasting.
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		g.Ctx.DeclareRange(s, 1, 512)
		h := g.Ctx.StaticDim(8)
		q := g.Parameter("q", tensor.F32, symshape.Shape{b, s, h})
		k := g.Parameter("k", tensor.F32, symshape.Shape{b, s, h})
		v := g.Parameter("v", tensor.F32, symshape.Shape{b, s, h})
		scores := g.Mul(g.MatMul(q, g.Transpose(k, 0, 2, 1)), g.ConstScalar(0.35355))
		probs := g.Softmax(scores)
		g.SetOutputs(g.MatMul(probs, v))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(6)
	for _, shape := range [][]int{{1, 4, 8}, {2, 19, 8}} {
		q := tensor.RandN(r, 1, shape...)
		k := tensor.RandN(r, 1, shape...)
		v := tensor.RandN(r, 1, shape...)
		checkAgainstReference(t, e, ref, []*tensor.Tensor{q, k, v})
	}
}

func TestCompiledGatherEmbedding(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		rr := tensor.NewRNG(8)
		table := g.Constant(tensor.RandN(rr, 1, 11, 6))
		idx := g.Parameter("ids", tensor.I32, symshape.Shape{b, s})
		g.SetOutputs(g.Relu(g.Gather(table, idx)))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(9)
	ids := tensor.RandIndices(r, 11, 3, 5)
	checkAgainstReference(t, e, ref, []*tensor.Tensor{ids})
}

func TestCompiledConcatSliceTranspose(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
		y := g.Parameter("y", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(3)})
		cat := g.Concat(1, x, y) // [B, 7]
		tr := g.Transpose(cat, 1, 0)
		g.SetOutputs(tr, g.StaticSlice(g.Transpose(tr, 1, 0), []int{0, 2}, []int{1, 4}))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(10)
	for _, batch := range []int{1, 5} {
		x := tensor.RandN(r, 1, batch, 4)
		y := tensor.RandN(r, 1, batch, 3)
		checkAgainstReference(t, e, ref, []*tensor.Tensor{x, y})
	}
}

func TestCompiledReshapeFusion(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, g.Ctx.StaticDim(4)})
		g.SetOutputs(g.Relu(g.MergeDims(g.Exp(x), 0, 2)))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(11)
	in := tensor.RandN(r, 1, 3, 7, 4)
	res := checkAgainstReference(t, e, ref, []*tensor.Tensor{in})
	if res.Profile.Launches != 1 {
		t.Fatalf("reshape chain should fuse to 1 launch, got %d", res.Profile.Launches)
	}
}

func TestCompiledMaskedSelect(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s})
		mask := g.Parameter("mask", tensor.F32, symshape.Shape{b, s})
		pred := g.Compare(mask, g.ConstScalar(0.5), "gt")
		g.SetOutputs(g.Select(pred, x, g.ConstScalar(-1e9)))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(12)
	x := tensor.RandN(r, 1, 2, 9)
	mask := tensor.RandUniform(r, 0, 1, 2, 9)
	checkAgainstReference(t, e, ref, []*tensor.Tensor{x, mask})
}

func TestSameExecutableServesManyShapes(t *testing.T) {
	// The core dynamic-shape property: one compiled artifact, many shapes,
	// zero recompiles — launches stay flat across shape changes.
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		g.Ctx.DeclareRange(s, 1, 512)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s})
		g.SetOutputs(g.Softmax(g.Relu(x)))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(13)
	launches := -1
	for _, shape := range [][]int{{1, 7}, {3, 120}, {2, 300}, {8, 64}} {
		in := tensor.RandN(r, 1, shape...)
		res := checkAgainstReference(t, e, ref, []*tensor.Tensor{in})
		if launches == -1 {
			launches = res.Profile.Launches
		} else if res.Profile.Launches != launches {
			t.Fatalf("launch count changed across shapes: %d vs %d", res.Profile.Launches, launches)
		}
	}
}

func TestVariantDispatchByRowLength(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		l := g.Ctx.NewDim("L")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, l})
		g.SetOutputs(g.Sum(g.Exp(x), []int{-1}, false))
	}
	cg, _ := buildTwice(build)
	e := compile(t, cg, fusion.Config{EnableLoop: true, EnableInput: true})
	r := tensor.NewRNG(14)
	// Short rows -> rowwarp; long rows -> rowblock.
	short, err := e.Run([]*tensor.Tensor{tensor.RandN(r, 1, 4, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if short.Profile.VariantHits["rowwarp"] == 0 {
		t.Fatalf("short rows must pick rowwarp: %v", short.Profile.VariantHits)
	}
	long, err := e.Run([]*tensor.Tensor{tensor.RandN(r, 1, 4, 256)})
	if err != nil {
		t.Fatal(err)
	}
	if long.Profile.VariantHits["rowblock"] == 0 {
		t.Fatalf("long rows must pick rowblock: %v", long.Profile.VariantHits)
	}
}

func TestVectorizedVariantDispatch(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b})
		g.SetOutputs(g.Relu(g.Exp(x)))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(15)
	res4 := checkAgainstReference(t, e, ref, []*tensor.Tensor{tensor.RandN(r, 1, 16)})
	if res4.Profile.VariantHits["vec4"] == 0 {
		t.Fatalf("divisible size must pick vec4: %v", res4.Profile.VariantHits)
	}
	res3 := checkAgainstReference(t, e, ref, []*tensor.Tensor{tensor.RandN(r, 1, 15)})
	if res3.Profile.VariantHits["scalar"] == 0 {
		t.Fatalf("non-divisible size must pick scalar: %v", res3.Profile.VariantHits)
	}
}

func TestGeneralReduceNonLastAxis(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, g.Ctx.StaticDim(4)})
		g.SetOutputs(g.Mean(x, []int{0}, false), g.Max(x, []int{1}, true))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(16)
	in := tensor.RandN(r, 1, 3, 5, 4)
	checkAgainstReference(t, e, ref, []*tensor.Tensor{in})
}

func TestFusionReducesSimulatedTime(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		g.Ctx.DeclareRange(s, 1, 512)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s})
		y := g.Relu(g.Add(g.Exp(x), g.ConstScalar(1)))
		g.SetOutputs(g.Softmax(y))
	}
	fusedG, _ := buildTwice(build)
	unfusedG, _ := buildTwice(build)
	fused := compile(t, fusedG, fusion.DefaultConfig())
	unfused := compile(t, unfusedG, fusion.Config{})
	r := tensor.NewRNG(17)
	in := tensor.RandN(r, 1, 8, 128)
	fres, err := fused.Run([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	ures, err := unfused.Run([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Profile.Launches >= ures.Profile.Launches {
		t.Fatalf("fusion must reduce launches: %d vs %d", fres.Profile.Launches, ures.Profile.Launches)
	}
	if fres.Profile.SimulatedNs >= ures.Profile.SimulatedNs {
		t.Fatalf("fusion must reduce simulated time: %.0f vs %.0f",
			fres.Profile.SimulatedNs, ures.Profile.SimulatedNs)
	}
	if fres.Profile.BytesMoved >= ures.Profile.BytesMoved {
		t.Fatalf("fusion must reduce traffic: %.0f vs %.0f",
			fres.Profile.BytesMoved, ures.Profile.BytesMoved)
	}
	// Numerics must agree between the two compilations.
	for i := range fres.Outputs {
		if err := tensor.AllClose(fres.Outputs[i], ures.Outputs[i], 1e-4, 1e-5); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolReuseAcrossRuns(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(8)})
		g.SetOutputs(g.Exp(x))
	}
	cg, _ := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(18)
	in := tensor.RandN(r, 1, 4, 8)
	for i := 0; i < 5; i++ {
		if _, err := e.Run([]*tensor.Tensor{in}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Pool.Stats()
	if st.Reuses == 0 {
		t.Fatalf("pool must reuse buffers across runs: %+v", st)
	}
}

func TestSpeculativeVariantDispatch(t *testing.T) {
	// With a declared likely row length, the compiler emits a specialized
	// variant; invocations at the likely value take it, others fall back
	// — with identical numerics either way.
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		l := g.Ctx.NewDim("L")
		g.Ctx.DeclareRange(l, 1, 512)
		g.Ctx.DeclareLikely(l, 64)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, l})
		g.SetOutputs(g.Softmax(g.Relu(x)))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(31)

	hot := checkAgainstReference(t, e, ref, []*tensor.Tensor{tensor.RandN(r, 1, 3, 64)})
	if hot.Profile.VariantHits["spec64"] == 0 {
		t.Fatalf("likely shape must take the speculative variant: %v", hot.Profile.VariantHits)
	}
	cold := checkAgainstReference(t, e, ref, []*tensor.Tensor{tensor.RandN(r, 1, 3, 65)})
	if cold.Profile.VariantHits["spec64"] != 0 {
		t.Fatalf("non-likely shape must not take the speculative variant: %v", cold.Profile.VariantHits)
	}
	// The speculative variant must be at least as fast in the cost model.
	if hot.Profile.SimulatedNs > cold.Profile.SimulatedNs*1.05 {
		t.Fatalf("speculation should not slow the hot shape: %.0f vs %.0f",
			hot.Profile.SimulatedNs, cold.Profile.SimulatedNs)
	}
}

func TestSpeculativeElementwiseVariant(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		h := g.Ctx.NewDim("H")
		g.Ctx.DeclareLikely(h, 32)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, h})
		g.SetOutputs(g.Relu(g.Add(g.Exp(x), g.ConstScalar(1))))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(32)
	hot := checkAgainstReference(t, e, ref, []*tensor.Tensor{tensor.RandN(r, 1, 2, 32)})
	if hot.Profile.VariantHits["spec32"] == 0 {
		t.Fatalf("hot shape variants: %v", hot.Profile.VariantHits)
	}
	checkAgainstReference(t, e, ref, []*tensor.Tensor{tensor.RandN(r, 1, 2, 33)})
}

func TestConcurrentRunsAreSafe(t *testing.T) {
	// One Engine, many goroutines, different shapes: results must match
	// the reference and nothing may race (run with -race in CI).
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		l := g.Ctx.NewDim("L")
		g.Ctx.DeclareRange(l, 1, 256)
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, l})
		g.SetOutputs(g.Softmax(x))
	}
	cg, ref := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			r := tensor.NewRNG(uint64(100 + i))
			in := tensor.RandN(r, 1, 1+i%3, 5+7*i)
			res, err := e.Run([]*tensor.Tensor{in})
			if err != nil {
				errs <- err
				return
			}
			want, err := graph.Evaluate(ref, []*tensor.Tensor{in})
			if err != nil {
				errs <- err
				return
			}
			errs <- tensor.AllClose(res.Outputs[0], want[0], 1e-4, 1e-5)
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
		y := g.Parameter("y", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
		g.SetOutputs(g.Add(x, y))
	}
	cg, _ := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	r := tensor.NewRNG(33)
	good := tensor.RandN(r, 1, 3, 4)
	// Wrong arity.
	if _, err := e.Run([]*tensor.Tensor{good}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	// Wrong static dim.
	if _, err := e.Run([]*tensor.Tensor{good, tensor.RandN(r, 1, 3, 5)}); err == nil {
		t.Fatal("static dim mismatch must error")
	}
	// Inconsistent symbol binding (B=3 vs B=2).
	if _, err := e.Run([]*tensor.Tensor{good, tensor.RandN(r, 1, 2, 4)}); err == nil {
		t.Fatal("inconsistent symbol binding must error")
	}
	// Wrong rank.
	if _, err := e.Run([]*tensor.Tensor{good, tensor.RandN(r, 1, 3)}); err == nil {
		t.Fatal("rank mismatch must error")
	}
}

func TestZeroExtentDimRejectedByRangeFacts(t *testing.T) {
	// Dynamic dims default to a declared lower bound of 1; a zero-sized
	// input is rejected by the compiled shape program's validation rather
	// than producing empty kernels.
	build := func(g *graph.Graph) {
		b := g.Ctx.NewDim("B")
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
		g.SetOutputs(g.Relu(x))
	}
	cg, _ := buildTwice(build)
	e := compile(t, cg, fusion.DefaultConfig())
	if _, err := e.Run([]*tensor.Tensor{tensor.New(tensor.F32, 0, 4)}); err == nil {
		t.Fatal("zero-extent dim must be rejected")
	}
}
