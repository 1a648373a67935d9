package fusion_test

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

// Differential net over the fusion planner: random graphs compiled under
// every fusion configuration, executed, and compared against graph.Evaluate on an unfused reference copy. A
// disagreement localizes a miscompile to the planner or the fused
// codegen for that configuration.

// configs spans the planner's feature lattice from no fusion to the full
// BladeDISC configuration (loop + input + horizontal + stitch).
func configs() map[string]fusion.Config {
	return map[string]fusion.Config{
		"none":       {},
		"loop":       {EnableLoop: true},
		"loop+input": {EnableLoop: true, EnableInput: true},
		"horizontal": {EnableLoop: true, EnableInput: true, EnableHorizontal: true},
		"full":       fusion.DefaultConfig(),
	}
}

func TestDifferentialFusionConfigsVsReference(t *testing.T) {
	const trials = 25
	dev := device.A10()
	for seed := uint64(500); seed < 500+trials; seed++ {
		steps := 6 + int(seed%8)
		h := []int{4, 8, 16}[seed%3]
		ref := randgraph.Build(seed, steps, h)
		r := tensor.NewRNG(seed * 3)
		ins := randgraph.Inputs(r, 2, 9, h)
		want, err := graph.Evaluate(ref, ins)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for name, cfg := range configs() {
			g := randgraph.Build(seed, steps, h)
			if _, err := opt.Default().Run(g); err != nil {
				t.Fatalf("seed %d %s: optimize: %v", seed, name, err)
			}
			plan, err := fusion.NewPlanner(cfg).Plan(g)
			if err != nil {
				t.Fatalf("seed %d %s: plan: %v", seed, name, err)
			}
			exe, err := exec.Compile(g, plan, dev, exec.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d %s: compile: %v", seed, name, err)
			}
			got, err := exe.Run(ins)
			if err != nil {
				t.Fatalf("seed %d %s: run: %v", seed, name, err)
			}
			if len(got.Outputs) != len(want) {
				t.Fatalf("seed %d %s: output arity %d, want %d", seed, name, len(got.Outputs), len(want))
			}
			for i := range want {
				if err := tensor.AllClose(got.Outputs[i], want[i], 2e-4, 2e-4); err != nil {
					t.Fatalf("seed %d config %s output %d: fused and reference disagree: %v\nplan:\n%s",
						seed, name, i, err, plan)
				}
			}
		}
	}
}

// TestDifferentialStitchAblation pins the stitch-specific path: the same
// graph with and without kStitch must agree bit-for-bit, since stitching
// only regroups kernels.
func TestDifferentialStitchAblation(t *testing.T) {
	const trials = 15
	dev := device.A10()
	for seed := uint64(600); seed < 600+trials; seed++ {
		mk := func(cfg fusion.Config) *exec.Executable {
			g := randgraph.Build(seed, 10, 8)
			if _, err := opt.Default().Run(g); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			plan, err := fusion.NewPlanner(cfg).Plan(g)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			exe, err := exec.Compile(g, plan, dev, exec.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return exe
		}
		noStitch := fusion.DefaultConfig()
		noStitch.EnableStitch = false
		stitched := mk(fusion.DefaultConfig())
		plain := mk(noStitch)
		r := tensor.NewRNG(seed)
		ins := randgraph.Inputs(r, 3, 13, 8)
		sres, err := stitched.Run(ins)
		if err != nil {
			t.Fatalf("seed %d stitched: %v", seed, err)
		}
		pres, err := plain.Run(ins)
		if err != nil {
			t.Fatalf("seed %d plain: %v", seed, err)
		}
		for i := range sres.Outputs {
			if err := tensor.AllClose(sres.Outputs[i], pres.Outputs[i], 0, 0); err != nil {
				t.Fatalf("seed %d output %d: stitch ablation changed numerics: %v", seed, i, err)
			}
		}
	}
}
