package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"godisc/internal/faultinject"
	"godisc/internal/graph"
	"godisc/internal/serve"
	"godisc/internal/servetest"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// allVersions enumerates the fixture fleet: 3 models × 2 versions.
func allVersions() [][2]string {
	var out [][2]string
	for _, s := range fixtureSpecs() {
		out = append(out, [2]string{s.name, "1"}, [2]string{s.name, "2"})
	}
	return out
}

// TestFleetLifecycle drives the full load → serve → unload → reload cycle
// over real HTTP and checks the repository index, the ledger and the
// model gauge at every step.
func TestFleetLifecycle(t *testing.T) {
	fx := newFixture(t, fixtureOpts{budget: 1 << 20})

	idx := fx.f.Index()
	if len(idx) != 6 {
		t.Fatalf("autoload must load 3 models × 2 versions, index: %+v", idx)
	}
	var wantBytes int64
	for _, st := range idx {
		if st.State != StateReady || !st.Resident {
			t.Fatalf("version %s:%s must be READY and resident: %+v", st.Name, st.Version, st)
		}
		wantBytes += fixtureBytes(st.Name, st.Version)
	}
	if got := fx.gov.Stats().ReservedBytes; got != wantBytes {
		t.Fatalf("ledger must carry exactly the loaded footprints: got %d want %d", got, wantBytes)
	}

	// Every version serves over HTTP; the default version is "2" (highest
	// numeric).
	for _, mv := range allVersions() {
		resp := fx.infer(t, mv[0], mv[1], 3, nil)
		if resp.ModelName != mv[0] || resp.ModelVersion != mv[1] {
			t.Fatalf("response identifies %s:%s, want %s:%s",
				resp.ModelName, resp.ModelVersion, mv[0], mv[1])
		}
		if len(resp.Outputs) != 1 || resp.Outputs[0].Datatype != DatatypeFP32 {
			t.Fatalf("bad outputs for %v: %+v", mv, resp.Outputs)
		}
	}
	if resp := fx.infer(t, "alpha", "", 2, nil); resp.ModelVersion != "2" {
		t.Fatalf("default version must be the highest numeric, got %q", resp.ModelVersion)
	}

	// Unload beta: immediate 404, ledger shrinks by exactly beta's bytes,
	// gauge drops to 2 models.
	if code, body := fx.do(t, http.MethodPost, "/v2/repository/models/beta/unload", nil, nil); code != http.StatusOK {
		t.Fatalf("unload beta: %d %s", code, body)
	}
	if code, _ := fx.do(t, http.MethodPost, "/v2/models/beta/infer",
		f32Request(t, []int64{1, 12}, make([]float32, 12)), nil); code != http.StatusNotFound {
		t.Fatalf("unloaded model must 404, got %d", code)
	}
	wantAfter := wantBytes - fixtureBytes("beta", "1") - fixtureBytes("beta", "2")
	if got := fx.gov.Stats().ReservedBytes; got != wantAfter {
		t.Fatalf("unload must release exactly beta's footprint: got %d want %d", got, wantAfter)
	}
	if len(fx.f.Index()) != 4 {
		t.Fatalf("index after unload: %+v", fx.f.Index())
	}

	// Reload over HTTP and serve again.
	if code, body := fx.do(t, http.MethodPost, "/v2/repository/models/beta/load", nil, nil); code != http.StatusOK {
		t.Fatalf("load beta: %d %s", code, body)
	}
	fx.infer(t, "beta", "1", 4, nil)
	if got := fx.gov.Stats().ReservedBytes; got != wantBytes {
		t.Fatalf("reload must re-charge the ledger: got %d want %d", got, wantBytes)
	}
}

// TestFleetEvictionChurn runs the whole fleet under a budget that holds
// only a fraction of it, with a persistent engine cache: every request
// must still succeed (evict-reload churn is invisible to clients), the
// ledger must always carry exactly the resident footprints, evicted
// engines must come back via cache decode — never a recompile — and
// evictions must be counted with reason "lru".
func TestFleetEvictionChurn(t *testing.T) {
	// Budget fits roughly two of the six versions, so every round of
	// requests forces eviction churn.
	var maxOne, total int64
	for _, mv := range allVersions() {
		b := fixtureBytes(mv[0], mv[1])
		total += b
		if b > maxOne {
			maxOne = b
		}
	}
	budget := maxOne * 2
	if budget >= total {
		t.Fatalf("fixture footprints too uniform for churn: budget %d total %d", budget, total)
	}
	fx := newFixture(t, fixtureOpts{budget: budget, cacheDir: t.TempDir()})

	warmCompiles := atomic.LoadInt32(fx.compiles)
	if warmCompiles != 6 {
		t.Fatalf("autoload must compile each version once, got %d", warmCompiles)
	}

	for round := 0; round < 4; round++ {
		for _, mv := range allVersions() {
			fx.infer(t, mv[0], mv[1], 1+round, nil)
		}
	}

	if n := atomic.LoadInt32(fx.compiles); n != warmCompiles {
		t.Fatalf("evicted engines must reload from the cache, not recompile: %d → %d", warmCompiles, n)
	}
	st := fx.srv.Stats()
	if st.EngineLoads == 0 {
		t.Fatalf("churn must have reloaded persisted engines: %+v", st)
	}
	if fx.f.evictionCounter("lru").Value() == 0 {
		t.Fatal("churn must have recorded lru evictions")
	}

	// Ledger invariant: reserved == sum of resident footprints, and under
	// budget.
	var resident int64
	for _, s := range fx.f.Index() {
		if s.Resident {
			resident += fixtureBytes(s.Name, s.Version)
		}
	}
	gst := fx.gov.Stats()
	if gst.ReservedBytes != resident {
		t.Fatalf("ledger %d must equal resident footprints %d", gst.ReservedBytes, resident)
	}
	if gst.ReservedBytes > budget || gst.HighWaterBytes > budget {
		t.Fatalf("budget exceeded: %+v (budget %d)", gst, budget)
	}

	// Shutdown releases everything.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fx.f.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := fx.gov.Stats().ReservedBytes; got != 0 {
		t.Fatalf("close must release every reservation, %d bytes leaked", got)
	}
}

// TestFleetWarmRestartServesWithoutCompiler rebuilds the whole fleet on a
// fresh serve.Server sharing the persistent engine cache: the second
// fleet must serve every version with zero compiler invocations
// (Stats.Compilations == 0 — the ISSUE acceptance criterion).
func TestFleetWarmRestartServesWithoutCompiler(t *testing.T) {
	cacheDir := t.TempDir()
	repo := t.TempDir()
	writeRepo(t, repo)

	cold := newFixture(t, fixtureOpts{budget: 1 << 20, cacheDir: cacheDir, repo: repo})
	for _, mv := range allVersions() {
		cold.infer(t, mv[0], mv[1], 2, nil)
	}
	if n := atomic.LoadInt32(cold.compiles); n != 6 {
		t.Fatalf("cold fleet must compile each version once, got %d", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cold.f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	servetest.Drain(t, cold.srv)

	warm := newFixture(t, fixtureOpts{budget: 1 << 20, cacheDir: cacheDir, repo: repo})
	for _, mv := range allVersions() {
		resp := warm.infer(t, mv[0], mv[1], 2, nil)
		if hit, _ := resp.Parameters["cache_hit"].(bool); !hit {
			t.Fatalf("warm request to %v must report a cache hit: %+v", mv, resp.Parameters)
		}
	}
	if n := atomic.LoadInt32(warm.compiles); n != 0 {
		t.Fatalf("warm fleet must never invoke the compiler, got %d compilations", n)
	}
	if st := warm.srv.Stats(); st.EngineLoads != 6 {
		t.Fatalf("warm fleet must decode all six engines from disk: %+v", st)
	}
}

// TestFleetHTTPMatchesDirectInfer checks bit-identical parity between the
// HTTP path (JSON round-trip included) and a direct serve.Server.Infer on
// an identically built backend.
func TestFleetHTTPMatchesDirectInfer(t *testing.T) {
	fx := newFixture(t, fixtureOpts{budget: 1 << 20})

	var direct int32
	ref := serve.New(serve.Config{MaxConcurrent: 2}, testCompile(&direct))
	defer servetest.Drain(t, ref)

	for _, mv := range allVersions() {
		name, version := mv[0], mv[1]
		if err := ref.Register(name+":"+version, func() *graph.Graph {
			return fixtureGraph(name, version)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, mv := range allVersions() {
		for _, batch := range []int{1, 3, 8} {
			width := 0
			for _, s := range fixtureSpecs() {
				if s.name == mv[0] {
					width = s.in
				}
			}
			data := randInput(uint64(batch)*31+7, batch, width)
			resp := fx.infer(t, mv[0], mv[1], batch, nil)
			want, err := ref.Infer(context.Background(), &serve.Request{
				Model:  mv[0] + ":" + mv[1],
				Inputs: []*tensor.Tensor{tensor.FromF32(append([]float32(nil), data...), batch, width)},
			})
			if err != nil {
				t.Fatalf("direct infer %v: %v", mv, err)
			}
			var got []float32
			if err := json.Unmarshal(resp.Outputs[0].Data, &got); err != nil {
				t.Fatal(err)
			}
			ref32 := want.Outputs[0].F32()
			if len(got) != len(ref32) {
				t.Fatalf("%v batch %d: %d vs %d elements", mv, batch, len(got), len(ref32))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(ref32[i]) {
					t.Fatalf("%v batch %d elem %d: HTTP %x vs direct %x — must be bit-identical",
						mv, batch, i, got[i], ref32[i])
				}
			}
		}
	}
}

// TestConcurrentRepliesMatchReference drives 1 KB and 700 KB requests
// concurrently over a few shared keep-alive connections, with the
// http-write fault site tearing down one reply in five, and demands that
// every reply that arrives is byte for byte encodeRef of a direct
// Server.Infer. Run under -race (make race) it is the check that no
// pooled wire buffer goes back to the pool — on return or on the fault
// site's panic — while anything still reads or writes it.
func TestConcurrentRepliesMatchReference(t *testing.T) {
	g := graph.New("echo")
	b := g.Ctx.NewDim("B")
	g.Ctx.DeclareRange(b, 1, 1024)
	x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(64)})
	g.SetOutputs(g.Add(x, g.ConstScalar(0.25)))
	repo := t.TempDir()
	writeVersion(t, repo, "echo", "1", g)
	inj := faultinject.New(7).Arm(faultinject.SiteHTTPWrite, faultinject.ModeError, 0.2)
	fx := newFixture(t, fixtureOpts{repo: repo, faults: inj})

	type exchange struct{ body, want []byte }
	var kinds []exchange
	for _, batch := range []int{1, 1000} {
		in := tensor.RandN(tensor.NewRNG(uint64(batch)), 0.5, batch, 64)
		var resp *serve.Response
		for range 2 { // the second answer is the steady state: a cache hit
			var err error
			if resp, err = fx.srv.Infer(context.Background(), &serve.Request{Model: "echo:1", Inputs: []*tensor.Tensor{in}}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := encodeRef("echo", "1", "", resp)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, exchange{f32Request(t, []int64{int64(batch), 64}, in.F32()), want})
	}
	if n := len(kinds[1].want); n < 600<<10 {
		t.Fatalf("large reply is only %d bytes", n)
	}

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 3, MaxIdleConnsPerHost: 3}}
	defer client.CloseIdleConnections()
	const workers, perWorker = 4, 10
	var ok, aborted atomic.Int32
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < perWorker; i++ {
				k := kinds[(w+i)%2]
				resp, err := client.Post(fx.ts.URL+"/v2/models/echo/infer", "application/json", bytes.NewReader(k.body))
				if err != nil {
					aborted.Add(1) // the http-write site tore the connection down
					continue
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					aborted.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, k.want) {
					errs <- fmt.Errorf("worker %d request %d: status %d, %d reply bytes differ from the reference's %d",
						w, i, resp.StatusCode, len(got), len(k.want))
					return
				}
				ok.Add(1)
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if ok.Load() == 0 || aborted.Load() == 0 {
		t.Fatalf("want both served and aborted replies, got %d ok, %d aborted (injector fired %d times)",
			ok.Load(), aborted.Load(), inj.Total())
	}
}
