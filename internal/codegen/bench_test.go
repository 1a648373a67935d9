package codegen

import (
	"testing"

	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/opt"
)

// BenchmarkLowerZoo lowers (and so Finalizes) every non-library group of
// the seven zoo models under the serving default: the compile cost a cold
// engine load pays in codegen and the bytecode compiler.
func BenchmarkLowerZoo(b *testing.B) {
	type planned struct {
		g    *graph.Graph
		plan *fusion.Plan
	}
	var zoo []planned
	for _, m := range models.Registry() {
		g := m.Build()
		if _, err := opt.Default().Run(g); err != nil {
			b.Fatal(err)
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			b.Fatal(err)
		}
		zoo = append(zoo, planned{g, plan})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, z := range zoo {
			for _, grp := range z.plan.Groups {
				if grp.Kind == fusion.KLibrary {
					continue
				}
				if _, err := Lower(z.g.Ctx, grp, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
