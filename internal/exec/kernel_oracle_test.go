package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/models"
	"godisc/internal/randgraph"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// The lowered-kernel oracle suite. internal/kir checks the bytecode VM
// against kir.Interpret on generated and hand-written kernels; this suite
// makes the same check on the kernels codegen actually emits for real
// graphs, at the buffers and dims the executor actually launches them
// with: every kernel launch of a run — whichever specialization variant
// the guards pick — must leave its buffers bit-identical to the tree
// interpreter's.

func cloneBufs(bufs [][]float32) [][]float32 {
	out := make([][]float32, len(bufs))
	for i, b := range bufs {
		out[i] = append([]float32(nil), b...)
	}
	return out
}

func requireBufsBitEqual(t *testing.T, where string, cp *kir.Compiled, got, want [][]float32) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if g, w := math.Float32bits(got[i][j]), math.Float32bits(want[i][j]); g != w {
				t.Fatalf("%s: buf %d[%d]: vm %x != interpreter %x\n%s\n%s",
					where, i, j, g, w, cp.AST(), cp.Disassemble())
			}
		}
	}
}

// checkProgram runs one compiled kernel program and the interpreter over
// its AST on copies of the same buffers.
func checkProgram(t *testing.T, where string, cp *kir.Compiled, bufs [][]float32, dims []int) {
	t.Helper()
	want := cloneBufs(bufs)
	if err := kir.Interpret(cp.AST(), want, dims); err != nil {
		t.Fatalf("%s: interpreter rejects a lowered kernel: %v\n%s", where, err, cp.AST())
	}
	got := cloneBufs(bufs)
	if err := cp.Run(got, dims); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	requireBufsBitEqual(t, where, cp, got, want)
}

// checkRunKernels walks e's tasks the way runTasks does and checks every
// kernel launch with checkProgram before executing it. It records the
// variant names it saw and finally requires the walk's outputs to equal
// e.Run's bit for bit, so the launches checked are the launches a real run
// makes.
func checkRunKernels(t *testing.T, label string, e *Executable, inputs []*tensor.Tensor, variants map[string]bool) {
	t.Helper()
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Shape()
	}
	vals, err := e.prog.Run(shapes)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rc, err := e.newRunCtx(context.Background(), inputs, vals)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer rc.release()
	for _, tk := range e.tasks {
		if tk.u.isLib {
			if err := e.runLibrary(rc, tk); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		} else {
			ln, err := e.prepareKernel(rc, tk)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			bufs := ln.bufs
			for i := 0; i < ln.k.ScratchRows; i++ {
				bufs = append(bufs, make([]float32, ln.rowLen))
			}
			where := fmt.Sprintf("%s: kernel %s variant %q dims %v", label, ln.k.Name, ln.variant.Name, ln.dims)
			variants[ln.variant.Name] = true
			checkProgram(t, where, ln.variant.Code, bufs, ln.dims)
			if err := ln.variant.Code.Run(bufs, ln.dims); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
		for _, sl := range tk.reads {
			rc.decRef(sl)
		}
	}
	res, err := e.Run(inputs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range res.Outputs {
		buf, err := rc.bufOf(e.outputSlots[i])
		if err != nil {
			t.Fatalf("%s: output %d: %v", label, i, err)
		}
		want, err := flatten(res.Outputs[i])
		if err != nil {
			t.Fatalf("%s: output %d: %v", label, i, err)
		}
		if !bitEqual(buf, want) {
			t.Fatalf("%s: output %d of the checked walk differs from Run", label, i)
		}
	}
}

// TestLoweredKernelsMatchInterpreterModels covers every zoo model at both
// ends of its declared batch and sequence ranges plus an interior point.
func TestLoweredKernelsMatchInterpreterModels(t *testing.T) {
	variants := map[string]bool{}
	for _, m := range models.Registry() {
		g := m.Build()
		_, maxBatch := g.Ctx.Range(g.Params[0].Shape[0])
		if maxBatch <= 1 {
			t.Fatalf("%s: parameter 0 dim 0 is not a ranged batch dim (hi=%d)", m.Name, maxBatch)
		}
		e := compile(t, g, fusion.DefaultConfig())
		// GenInputs raises seq 1 to the model's declared minimum.
		for _, p := range [][2]int{{1, 1}, {3, m.MaxSeq/2 + 1}, {1, m.MaxSeq}, {int(maxBatch), 1}} {
			r := tensor.NewRNG(uint64(17 + p[0] + p[1]))
			label := fmt.Sprintf("%s batch=%d seq=%d", m.Name, p[0], p[1])
			checkRunKernels(t, label, e, m.GenInputs(r, p[0], p[1]), variants)
		}
	}
	// The shapes above must reach past the generic variants, or the suite
	// silently stops covering specialization.
	if len(variants) < 3 {
		t.Fatalf("only variants %v were dispatched", variants)
	}
	t.Logf("variants dispatched: %v", variants)
}

// TestLoweredKernelsMatchInterpreterRandomGraphs covers randgraph graphs
// at both ends of S's declared range (1..512) plus an interior point.
func TestLoweredKernelsMatchInterpreterRandomGraphs(t *testing.T) {
	variants := map[string]bool{}
	for seed := uint64(1); seed <= 24; seed++ {
		steps := 4 + int(seed%12)
		h := []int{4, 8, 16}[seed%3]
		e := compile(t, randgraph.Build(seed, steps, h), fusion.DefaultConfig())
		for _, p := range [][2]int{{1, 1}, {2, 17}, {1, 512}} {
			r := tensor.NewRNG(seed * 7)
			label := fmt.Sprintf("seed %d B=%d S=%d", seed, p[0], p[1])
			checkRunKernels(t, label, e, randgraph.Inputs(r, p[0], p[1], h), variants)
		}
	}
	t.Logf("variants dispatched: %v", variants)
}

// TestLoweredKernelsMatchInterpreterUncommonLowerings covers what no zoo or
// randgraph graph lowers to: speculative likely-value variants (no zoo model
// declares a likely dim) and full max/min reductions.
func TestLoweredKernelsMatchInterpreterUncommonLowerings(t *testing.T) {
	variants := map[string]bool{}
	g := graph.New("uncommon")
	b := g.Ctx.NewDim("B")
	l := g.Ctx.NewDim("L")
	g.Ctx.DeclareRange(l, 1, 512)
	g.Ctx.DeclareLikely(l, 64)
	x := g.Parameter("x", tensor.F32, symshape.Shape{b, l})
	g.SetOutputs(
		g.Softmax(g.Relu(x)),
		g.Relu(g.Add(g.Exp(x), g.ConstScalar(1))),
		g.Max(x, []int{0, 1}, false),
		g.ReduceOp(g.Tanh(x), tensor.ReduceMin, []int{0, 1}, false),
	)
	e := compile(t, g, fusion.DefaultConfig())
	for _, p := range [][2]int{{1, 1}, {3, 64}, {2, 65}, {1, 512}} {
		r := tensor.NewRNG(uint64(p[1]))
		label := fmt.Sprintf("uncommon B=%d L=%d", p[0], p[1])
		checkRunKernels(t, label, e, []*tensor.Tensor{tensor.RandN(r, 1, p[0], p[1])}, variants)
	}
	if !variants["spec64"] {
		t.Fatalf("spec64 never dispatched: %v", variants)
	}
}
