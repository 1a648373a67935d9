package opt_test

import (
	"testing"

	"godisc/internal/device"
	"godisc/internal/exec"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/opt"
	"godisc/internal/randgraph"
	"godisc/internal/tensor"
)

// Differential net over the optimization pipelines: every random graph is
// optimized (Default and WithoutDuplication), compiled and executed,
// then compared against graph.Evaluate on an
// unoptimized reference copy built from the same seed. Any disagreement
// is an optimizer miscompile. Tolerances are loose enough to absorb the
// re-associations Decompose introduces (e.g. softmax lowered to
// exp/sum/div), nothing more.

func compileAndCompare(t *testing.T, seed uint64, steps, h int, pipeline *opt.Pipeline) {
	t.Helper()
	ref := randgraph.Build(seed, steps, h)
	g := randgraph.Build(seed, steps, h)
	if _, err := pipeline.Run(g); err != nil {
		t.Fatalf("seed %d: optimize: %v", seed, err)
	}
	plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
	if err != nil {
		t.Fatalf("seed %d: plan: %v", seed, err)
	}
	exe, err := exec.Compile(g, plan, device.A10(), exec.DefaultOptions())
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	r := tensor.NewRNG(seed * 13)
	for _, shape := range [][2]int{{1, 1}, {2, 7}, {3, 19}} {
		ins := randgraph.Inputs(r, shape[0], shape[1], h)
		want, err := graph.Evaluate(ref, ins)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := exe.Run(ins)
		if err != nil {
			t.Fatalf("seed %d shape %v: run: %v", seed, shape, err)
		}
		if len(got.Outputs) != len(want) {
			t.Fatalf("seed %d: output arity %d, want %d", seed, len(got.Outputs), len(want))
		}
		for i := range want {
			if err := tensor.AllClose(got.Outputs[i], want[i], 2e-4, 2e-4); err != nil {
				t.Fatalf("seed %d shape %v output %d: optimized and reference disagree: %v",
					seed, shape, i, err)
			}
		}
	}
}

func TestDifferentialDefaultPipeline(t *testing.T) {
	const trials = 40
	for seed := uint64(1); seed <= trials; seed++ {
		steps := 4 + int(seed%12)
		h := []int{4, 8, 16}[seed%3]
		compileAndCompare(t, seed, steps, h, opt.Default())
	}
}

func TestDifferentialWithoutDuplication(t *testing.T) {
	const trials = 20
	for seed := uint64(300); seed < 300+trials; seed++ {
		compileAndCompare(t, seed, 8, 8, opt.WithoutDuplication())
	}
}

// TestDifferentialPipelinesAgree compiles the same graph under both
// pipelines and cross-checks the executables against each other (not
// just the interpreter): duplication must be a pure scheduling change.
func TestDifferentialPipelinesAgree(t *testing.T) {
	const trials = 20
	dev := device.A10()
	for seed := uint64(400); seed < 400+trials; seed++ {
		mk := func(p *opt.Pipeline) *exec.Executable {
			g := randgraph.Build(seed, 10, 8)
			if _, err := p.Run(g); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			exe, err := exec.Compile(g, plan, dev, exec.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return exe
		}
		full := mk(opt.Default())
		noDup := mk(opt.WithoutDuplication())
		r := tensor.NewRNG(seed)
		ins := randgraph.Inputs(r, 2, 11, 8)
		fres, err := full.Run(ins)
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		nres, err := noDup.Run(ins)
		if err != nil {
			t.Fatalf("seed %d no-dup: %v", seed, err)
		}
		for i := range fres.Outputs {
			if err := tensor.AllClose(fres.Outputs[i], nres.Outputs[i], 2e-4, 2e-4); err != nil {
				t.Fatalf("seed %d output %d: pipelines disagree: %v", seed, i, err)
			}
		}
	}
}
