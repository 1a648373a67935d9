package baselines

import (
	"godisc/internal/exec"
	"godisc/internal/graph"
	"godisc/internal/symshape"
)

// Shape-feedback speculation: BladeDISC pairs its compile-time variant
// machinery with runtime feedback — the compiler observes the concrete
// values hot dimensions actually take and respecializes once a dominant
// value emerges. This file implements that loop for the Compiled strategy:
// a per-dimension histogram, a dominance test, and a one-shot background
// respecialization that declares the winners as likely values and relowers
// the same plan (the symbolic cache entry is unchanged — speculation adds
// variants, it does not fork executables).

// feedback accumulates observed values per dynamic dimension root.
type feedback struct {
	counts map[symshape.DimID]map[int64]int
	calls  int
	done   bool
}

func newFeedback() *feedback {
	return &feedback{counts: map[symshape.DimID]map[int64]int{}}
}

// observe records the concrete extents of one invocation's parameters.
func (f *feedback) observe(g *graph.Graph, shapes [][]int) {
	f.calls++
	for i, p := range g.Params {
		if i >= len(shapes) {
			return
		}
		for j, d := range p.Shape {
			if g.Ctx.IsStatic(d) || j >= len(shapes[i]) {
				continue
			}
			r := g.Ctx.Root(d)
			m := f.counts[r]
			if m == nil {
				m = map[int64]int{}
				f.counts[r] = m
			}
			m[int64(shapes[i][j])]++
		}
	}
}

// dominantValues returns, for each observed dimension, a value that
// accounts for more than half of the observations — the speculation
// candidates.
func (f *feedback) dominantValues() map[symshape.DimID]int64 {
	out := map[symshape.DimID]int64{}
	for d, m := range f.counts {
		total := 0
		bestV, bestN := int64(0), 0
		for v, n := range m {
			total += n
			if n > bestN {
				bestV, bestN = v, n
			}
		}
		if total > 0 && bestN*2 > total {
			out[d] = bestV
		}
	}
	return out
}

// SpeculationWarmup is the number of invocations observed before the
// strategy considers respecializing.
const SpeculationWarmup = 16

// maybeRespecialize runs the feedback loop: after the warmup window, if any
// dynamic dimension has a dominant value, declare it likely and relower the
// executable once. Returns the compile stall to charge (0 if nothing
// happened).
func (c *Compiled) maybeRespecialize(shapes [][]int) float64 {
	if !c.params.AdaptiveSpeculation || c.fb == nil || c.fb.done {
		return 0
	}
	c.fb.observe(c.g, shapes)
	if c.fb.calls < SpeculationWarmup {
		return 0
	}
	c.fb.done = true
	dom := c.fb.dominantValues()
	if len(dom) == 0 {
		return 0
	}
	for d, v := range dom {
		c.g.Ctx.DeclareLikely(d, v)
	}
	exe, err := exec.Compile(c.g, c.exe.Plan, c.exe.Dev, exec.Options{
		Codegen:        c.params.Codegen,
		HostDispatchNs: c.params.HostNsPerLaunch,
		AliasViews:     true,
	})
	if err != nil {
		// Respecialization is best effort: keep the existing executable.
		return 0
	}
	c.exe = exe
	// Relowering a handful of kernels is far cheaper than a fresh
	// compilation; charge a fraction of the full stall.
	return c.params.CompileNs * 0.25
}
