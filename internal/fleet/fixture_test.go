package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"godisc/internal/device"
	"godisc/internal/discerr"
	"godisc/internal/exec"
	"godisc/internal/faultinject"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/opt"
	"godisc/internal/ral"
	"godisc/internal/serve"
	"godisc/internal/servetest"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// testCompile is the real compilation pipeline with a counter, so fleet
// tests can assert exactly when the compiler runs (and when the
// persistent engine cache makes it unnecessary).
func testCompile(calls *int32) serve.CompileFunc {
	return testCompileFaults(calls, nil, nil)
}

// testCompileFaults additionally threads a fault injector into the
// engines. The saturation test arms a latency-only rule so engine runs
// genuinely overlap on a single-CPU host (pure-CPU runs shorter than a
// scheduling quantum otherwise serialize in the Go scheduler and the
// admission queue never fills). A non-nil srv names the server whose
// buffer pool every engine shares, as in production; it must be bound
// before the first compile.
func testCompileFaults(calls *int32, inj *faultinject.Injector, srv **serve.Server) serve.CompileFunc {
	return func(g *graph.Graph) (serve.Engine, error) {
		if calls != nil {
			atomic.AddInt32(calls, 1)
		}
		if _, err := opt.Default().Run(g); err != nil {
			return nil, err
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			return nil, err
		}
		eo := exec.DefaultOptions()
		eo.Faults = inj
		if srv != nil {
			eo.Pool = (*srv).BufferPool()
		}
		return exec.Compile(g, plan, device.A10(), eo)
	}
}

// buildDense is the fixture model: a two-layer MLP with a dynamic batch
// axis and deterministic weights, parameterized so each (model, version)
// in the repository gets its own weights and hidden width — distinct
// engines, distinct resident footprints.
func buildDense(name string, seed uint64, in, hidden, out int) *graph.Graph {
	g := graph.New(name)
	r := tensor.NewRNG(seed)
	b := g.Ctx.NewDim("B")
	g.Ctx.DeclareRange(b, 1, 64)
	x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(int64(in))})
	w1 := g.Constant(tensor.RandN(r, 0.2, in, hidden))
	w2 := g.Constant(tensor.RandN(r, 0.2, hidden, out))
	g.SetOutputs(g.MatMul(g.Relu(g.MatMul(x, w1)), w2))
	return g
}

// fixtureSpec is one fixture model: input width and weight seed. Every
// model ships versions "1" (hidden 16) and "2" (hidden 24).
type fixtureSpec struct {
	name string
	in   int
	seed uint64
}

func fixtureSpecs() []fixtureSpec {
	return []fixtureSpec{{"alpha", 8, 1}, {"beta", 12, 2}, {"gamma", 6, 3}}
}

// fixtureGraph rebuilds the exact graph stored for (model, version), for
// direct serve-layer comparison against HTTP results.
func fixtureGraph(name, version string) *graph.Graph {
	for _, s := range fixtureSpecs() {
		if s.name != name {
			continue
		}
		switch version {
		case "1":
			return buildDense(s.name, s.seed, s.in, 16, 4)
		case "2":
			return buildDense(s.name, s.seed+100, s.in, 24, 4)
		}
	}
	return nil
}

// fixtureBytes is the resident footprint constBytes reports for one
// fixture version — what the governor ledger must charge.
func fixtureBytes(name, version string) int64 {
	return constBytes(fixtureGraph(name, version))
}

// writeRepo materializes the 3-model × 2-version repository on disk.
func writeRepo(t testing.TB, dir string) {
	t.Helper()
	for _, s := range fixtureSpecs() {
		for _, v := range []string{"1", "2"} {
			d := filepath.Join(dir, s.name, v)
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			text := graph.WriteText(fixtureGraph(s.name, v))
			if err := os.WriteFile(filepath.Join(d, GraphFileName), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fixture bundles one running fleet: serve backend, governor ledger,
// compile counter and an httptest server speaking real HTTP.
type fixture struct {
	f        *Fleet
	srv      *serve.Server
	gov      *ral.Governor
	ts       *httptest.Server
	compiles *int32
}

type fixtureOpts struct {
	budget        int64  // governor budget; 0 = ungoverned
	cacheDir      string // persistent engine cache dir; "" = none
	maxBody       int64
	repo          string // override repo dir ("" = fresh default repo)
	noRepo        bool   // build the fleet with no repository at all
	maxBatchSize  int
	maxConcurrent int // serve execution slots (default 8)
	queueDepth    int // serve admission queue depth (0 = serve default)
	// kernelLatency, when > 0, injects that much sleep into every kernel
	// launch (latency-only fault; results unchanged) so runs overlap on a
	// single-CPU host.
	kernelLatency time.Duration
	// rollout enables/configures the canary rollout controller.
	rollout RolloutConfig
	// faults arms the fleet's network-layer fault sites (http-read,
	// http-decode, http-write) AND is threaded into the engines so the
	// kernel/alloc sites fire too.
	faults *faultinject.Injector
	// breakEngines lists graph names whose compiled engines fail every
	// run with a transient error — a deterministic per-version broken
	// engine (the serve layer retries, opens the breaker, and serves the
	// request through the interpreter fallback).
	breakEngines map[string]bool
	// serveCfg, when non-nil, tweaks the serve.Config after the fixture
	// defaults are applied.
	serveCfg func(*serve.Config)
}

// brokenEngine wraps an Engine so every run fails with a transient
// error, exercising the retry → breaker → fallback ladder.
type brokenEngine struct{ serve.Engine }

func (brokenEngine) RunContext(context.Context, []*tensor.Tensor) (*exec.Result, error) {
	return nil, fmt.Errorf("fixture: engine wired to fail: %w", discerr.ErrTransient)
}

func newFixture(t testing.TB, o fixtureOpts) *fixture {
	t.Helper()
	if o.maxConcurrent == 0 {
		o.maxConcurrent = 8
	}
	var compiles int32
	var srv *serve.Server
	inj := o.faults
	if inj == nil && o.kernelLatency > 0 {
		inj = faultinject.New(1).
			ArmLatency(faultinject.SiteKernelLaunch, faultinject.ModeLatency, 1, o.kernelLatency)
	}
	scfg := serve.Config{
		MaxConcurrent: o.maxConcurrent,
		QueueDepth:    o.queueDepth,
		MaxBatchSize:  o.maxBatchSize,
	}
	if o.cacheDir != "" {
		scfg.EngineCache = servetest.OpenCache(t, o.cacheDir)
		// Decoded engines must carry the same injector as compiled ones,
		// or the first evict/reload cycle silently disarms the faults.
		scfg.DecodeEngine = func(payload []byte) (serve.Engine, error) {
			eo := exec.DefaultOptions()
			eo.Faults = inj
			eo.Pool = srv.BufferPool()
			return exec.DecodeImage(payload, device.A10(), eo)
		}
		scfg.EncodeEngine = func(e serve.Engine) ([]byte, error) {
			return servetest.EncodeExecutable(e)
		}
	}
	if o.serveCfg != nil {
		o.serveCfg(&scfg)
	}
	compile := testCompileFaults(&compiles, inj, &srv)
	if len(o.breakEngines) > 0 {
		inner := compile
		compile = func(g *graph.Graph) (serve.Engine, error) {
			e, err := inner(g)
			if err == nil && o.breakEngines[g.Name] {
				e = brokenEngine{e}
			}
			return e, err
		}
	}
	srv = serve.New(scfg, compile)
	// The shared pool probes the alloc site, like godisc.NewServer's.
	srv.BufferPool().SetFaults(inj)

	repo := o.repo
	if repo == "" && !o.noRepo {
		repo = t.TempDir()
		writeRepo(t, repo)
	}
	var gov *ral.Governor
	if o.budget > 0 {
		gov = ral.NewGovernor(o.budget)
	}
	f, err := New(Config{
		Server:       srv,
		Repo:         repo,
		Governor:     gov,
		MaxBodyBytes: o.maxBody,
		LoadTimeout:  10 * time.Second,
		AutoLoad:     !o.noRepo,
		Rollout:      o.rollout,
		Faults:       o.faults,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	ts := httptest.NewServer(f)
	fx := &fixture{f: f, srv: srv, gov: gov, ts: ts, compiles: &compiles}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.Close(ctx)
		servetest.Drain(t, srv)
	})
	return fx
}

// f32Request builds a v2 infer body carrying one FP32 input tensor.
func f32Request(t testing.TB, shape []int64, data []float32) []byte {
	t.Helper()
	raw, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(InferRequest{
		Inputs: []InferTensor{{Name: "x", Shape: shape, Datatype: DatatypeFP32, Data: raw}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// randInput deterministically fills a [batch, width] FP32 input.
func randInput(seed uint64, batch, width int) []float32 {
	r := tensor.NewRNG(seed)
	return tensor.RandN(r, 0.5, batch, width).F32()
}

// do issues one HTTP request against the fixture and returns status +
// decoded JSON body (nil when the body is not an object).
func (fx *fixture) do(t testing.TB, method, path string, body []byte, hdr map[string]string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, fx.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// infer POSTs a batch-b request to model (and optional version) and
// decodes the v2 response; fails the test on non-200.
func (fx *fixture) infer(t testing.TB, model, version string, batch int, hdr map[string]string) *InferResponse {
	t.Helper()
	path := "/v2/models/" + model + "/infer"
	if version != "" {
		path = "/v2/models/" + model + "/versions/" + version + "/infer"
	}
	width := 0
	for _, s := range fixtureSpecs() {
		if s.name == model {
			width = s.in
		}
	}
	body := f32Request(t, []int64{int64(batch), int64(width)}, randInput(uint64(batch)*31+7, batch, width))
	code, payload := fx.do(t, http.MethodPost, path, body, hdr)
	if code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, code, payload)
	}
	var out InferResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("POST %s: decoding response: %v", path, err)
	}
	return &out
}
