package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/serve"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
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
	key, err := srv.EngineKey(reg)
	if err != nil {
		t.Fatal(err)
	}
	if evicted, _ := srv.EvictEngine(key); !evicted {
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

// TestLegacyDecimalRepository: a model file written before the b64 payload
// form existed (every constant a decimal list) still loads, and answers an
// infer byte-identically to the same model written as WriteText writes it
// now.
func TestLegacyDecimalRepository(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("..", "graph", "testdata", "legacy", "dlrm.graph"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.ByName("dlrm")
	if err != nil {
		t.Fatal(err)
	}
	current := graph.WriteText(m.Build())
	if bytes.Contains(legacy, []byte("data=b64:")) || !strings.Contains(current, "data=b64:") {
		t.Fatal("fixture texts do not hold one payload form each")
	}
	repo := t.TempDir()
	for v, text := range map[string]string{"1": string(legacy), "2": current} {
		dir := filepath.Join(repo, m.Name, v)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, GraphFileName), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fx := newFixture(t, fixtureOpts{repo: repo})

	req := InferRequest{}
	for i, in := range m.GenInputs(tensor.NewRNG(3), 5, 1) {
		shape := make([]int64, in.Rank())
		for d, n := range in.Shape() {
			shape[d] = int64(n)
		}
		var data any
		switch in.DType() {
		case tensor.F32:
			data = in.F32()
		case tensor.I32:
			data = in.I32()
		}
		raw, err := json.Marshal(data)
		if err != nil {
			t.Fatal(err)
		}
		req.Inputs = append(req.Inputs, InferTensor{Name: fmt.Sprint("in", i), Shape: shape, Datatype: datatypeOf(in.DType()), Data: raw})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var outs []json.RawMessage
	for _, v := range []string{"1", "2"} {
		path := "/v2/models/" + m.Name + "/versions/" + v + "/infer"
		code, payload := fx.do(t, http.MethodPost, path, body, nil)
		if code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, code, payload)
		}
		var resp struct {
			Outputs json.RawMessage `json:"outputs"`
		}
		if err := json.Unmarshal(payload, &resp); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, resp.Outputs)
	}
	if !bytes.Contains(outs[0], []byte(`"data":[`)) {
		t.Fatalf("no output data in %s", outs[0])
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("decimal file answered %s\nb64 file answered %s", outs[0], outs[1])
	}
}
