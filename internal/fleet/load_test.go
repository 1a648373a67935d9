package fleet

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/serve"
	"godisc/internal/symshape"
)

// builtGraph is what one builder invocation handed out, recorded before
// the compiler rewrote it.
type builtGraph struct {
	ctx   *symshape.Context
	nodes map[*graph.Node]bool
}

// TestRegisteredBuildersShareNothing requires the builder loadVersion
// registers to hand out graphs that share no node and no shape context
// with each other, so each compile may rewrite its graph freely.
func TestRegisteredBuildersShareNothing(t *testing.T) {
	var (
		mu    sync.Mutex
		built []builtGraph
	)
	compile := testCompile(nil)
	srv := serve.New(serve.Config{MaxConcurrent: 2}, func(g *graph.Graph) (serve.Engine, error) {
		b := builtGraph{ctx: g.Ctx, nodes: map[*graph.Node]bool{}}
		for _, n := range g.Nodes() {
			b.nodes[n] = true
		}
		for _, n := range append(append([]*graph.Node(nil), g.Params...), g.Outputs...) {
			b.nodes[n] = true
		}
		mu.Lock()
		built = append(built, b)
		mu.Unlock()
		return compile(g)
	})
	defer srv.Close()
	repo := t.TempDir()
	writeRepo(t, repo)
	f, err := New(Config{Server: srv, Repo: repo, LoadTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(context.Background())
	if err := f.LoadModel(context.Background(), "alpha"); err != nil {
		t.Fatal(err)
	}
	// Evict and re-warm one version so its builder runs for a second
	// compile.
	const reg = "alpha:1"
	sig, err := srv.ModelSignature(reg)
	if err != nil {
		t.Fatal(err)
	}
	if evicted, _ := srv.EvictEngine(reg, sig); !evicted {
		t.Fatalf("%s: engine not evicted", reg)
	}
	if err := srv.Warm(reg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(built) != 3 {
		t.Fatalf("%d compiles, want 3 (two versions, one re-warm)", len(built))
	}
	for i := range built {
		for j := i + 1; j < len(built); j++ {
			if built[i].ctx == built[j].ctx {
				t.Fatalf("builds %d and %d share a shape context", i, j)
			}
			for n := range built[i].nodes {
				if built[j].nodes[n] {
					t.Fatalf("builds %d and %d share node %d", i, j, n.ID)
				}
			}
		}
	}
}

// benchmarkLoadModel loads, then unloads, the bert zoo model through a
// fleet on a persistent engine cache. Cold iterations empty the cache
// first, so each load compiles; warm ones load the cached engine image.
func benchmarkLoadModel(b *testing.B, cold bool) {
	repo, cacheDir := b.TempDir(), b.TempDir()
	m, err := models.ByName("bert")
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(repo, m.Name, "1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, GraphFileName), []byte(graph.WriteText(m.Build())), 0o644); err != nil {
		b.Fatal(err)
	}
	fx := newFixture(b, fixtureOpts{repo: repo, cacheDir: cacheDir, maxConcurrent: 1})
	ctx := context.Background()
	// The fixture loaded the model at start-up, which also filled the
	// engine cache for the warm case.
	if err := fx.f.UnloadModel(ctx, m.Name); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			engines, err := filepath.Glob(filepath.Join(cacheDir, "*.eng"))
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range engines {
				if err := os.Remove(e); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := fx.f.LoadModel(ctx, m.Name); err != nil {
			b.Fatal(err)
		}
		if err := fx.f.UnloadModel(ctx, m.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadModelCold prices one compiling load (and its unload).
func BenchmarkLoadModelCold(b *testing.B) { benchmarkLoadModel(b, true) }

// BenchmarkLoadModelWarm prices one load from the engine cache (and its
// unload).
func BenchmarkLoadModelWarm(b *testing.B) { benchmarkLoadModel(b, false) }
