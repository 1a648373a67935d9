package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"godisc"
	"godisc/internal/codegen"
	"godisc/internal/enginecache"
	"godisc/internal/exec"
	"godisc/internal/fleet"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/opt"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own files. Spans of one request share Request; Parent is the
// span of the layer that makes this call in the real program (0 for a
// root). Only http ⊃ fleet nest in time — fleet.decode, serve, exec and kir
// are the same request executed again right after the round trip, one layer
// deeper each, so their intervals follow their parent's instead of lying
// inside it. Self time is therefore computed from durations (selfTimes).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUs - s.StartUs) / 1e3 }

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, parent, request int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartUs: float64(start.Sub(l.t0)) / 1e3, EndUs: float64(end.Sub(l.t0)) / 1e3,
	})
	return id
}

// end closes a span that was opened before its children ran.
func (l *spanLog) end(id int, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndUs = float64(at.Sub(l.t0)) / 1e3
}

// selfTimes returns, per span ID, the span's duration minus the durations
// of its children, in milliseconds. A negative value means the children —
// measured on their own — took longer than the parent that contains them
// in the real program; it is kept, not clamped, so the report can show it.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.ms()
		if s.Parent != 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// selfNoiseMs is how far below zero a median self time may fall before the
// report flags it: re-executing a request does not reproduce the first
// execution to the microsecond.
const selfNoiseMs = 0.02

// handlerTimer wraps the fleet handler and remembers when the last request
// entered and left it. The traced run sends one request at a time.
type handlerTimer struct {
	next       http.Handler
	mu         sync.Mutex
	start, end time.Time
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.start, h.end = start, end
	h.mu.Unlock()
}

func (h *handlerTimer) last() (start, end time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.start, h.end
}

// stack is the serving stack built in-process exactly as discserve's
// runServe builds it with default flags: godisc.NewServer + godisc.NewFleet
// behind a hardened http.Server on loopback.
type stack struct {
	srv   *godisc.Server
	fl    *godisc.Fleet
	plain *listener // serves the fleet directly (tracing off)
	timed *listener // serves the fleet through a handlerTimer
	timer *handlerTimer
}

type listener struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		// discserve's default -http-*-timeout flags.
		srv: &http.Server{
			Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 10 * time.Second,
			WriteTimeout: 30 * time.Second, IdleTimeout: 120 * time.Second,
		},
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

func newStack(repo, cacheDir string) (*stack, error) {
	tr, reg := godisc.NewTracer(0), godisc.NewMetrics()
	st := &stack{}
	// discserve's flag defaults: -workers 8, -queue 64, -device A10.
	st.srv = godisc.NewServer(godisc.ServerConfig{
		MaxConcurrent: 8, QueueDepth: 64, CacheDir: cacheDir, Observer: tr, Metrics: reg,
	}, godisc.WithDevice(godisc.A10()))
	var err error
	st.fl, err = godisc.NewFleet(godisc.FleetConfig{
		Server: st.srv, Repo: repo, Metrics: reg, Observer: tr, Tracer: tr, AutoLoad: true,
	})
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	st.timer = &handlerTimer{next: st.fl}
	if st.plain, err = listen(st.fl); err == nil {
		st.timed, err = listen(st.timer)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	for _, l := range []*listener{st.plain, st.timed} {
		if l != nil {
			l.close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = st.fl.Close(ctx)
	_ = st.srv.Shutdown(ctx)
}

// tracedResult is what the traced in-process run of one workload produced.
type tracedResult struct {
	Layer map[string]float64 `json:"per_layer"`
	// Negative lists layers whose median self time fell below zero by more
	// than noise.
	Negative []string `json:"negative_self_time,omitempty"`
	Requests int      `json:"requests_traced"`
	Failed   int      `json:"failed"`
	// FirstError is the first failed operation's message, if any.
	FirstError string `json:"first_error,omitempty"`
	spans      []span
}

// series collects one number per traced request (or per pipeline pass).
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// runTraced measures where one workload's time goes, layer by layer, in
// process and one request at a time. Part A sends the pool through the
// stack and re-executes each request one layer deeper at a time; part B
// times the compile pipeline and the repository lifecycle of the
// workload's models.
func runTraced(e env, w spec) (*tracedResult, error) {
	res := &tracedResult{Layer: map[string]float64{}}
	log := newSpanLog()
	budget := time.Duration(e.seconds * float64(time.Second))
	if err := traceRequests(res, log, w, e.pool, e.texts, e.repo, e.seed, budget*7/10); err != nil {
		return nil, err
	}
	if err := tracePipeline(res, log, w, e.texts, e.repo, filepath.Join(e.scratch, "trace-cache"), budget*3/10); err != nil {
		return nil, err
	}
	dropNaN(res.Layer)
	res.spans = log.spans
	return res, nil
}

func compileText(text string, opts ...godisc.Option) (*godisc.Engine, error) {
	g, err := godisc.ParseGraph(text)
	if err != nil {
		return nil, err
	}
	return godisc.CompileWith(g, opts...)
}

// traceRequests is part A of the traced run.
func traceRequests(res *tracedResult, log *spanLog, w spec, pool []*request, texts map[string]string, repo string, seed uint64, budget time.Duration) error {
	st, err := newStack(repo, "")
	if err != nil {
		return err
	}
	defer st.close()

	// The engines the exec and kir spans run on: one compiled as the server
	// compiles it (default workers), one sequential — only the sequential
	// path records Profile.KernelWallNs.
	served, seq := map[string]*godisc.Engine{}, map[string]*godisc.Engine{}
	for _, m := range w.models {
		if served[m], err = compileText(texts[m]); err != nil {
			return err
		}
		if seq[m], err = compileText(texts[m], godisc.WithWorkers(1)); err != nil {
			return err
		}
	}

	plain, timed := newClient(st.plain.base, 1), newClient(st.timed.base, 1)
	defer plain.close()
	defer timed.close()
	fail := func(err error) {
		res.Failed++
		if res.FirstError == "" {
			res.FirstError = err.Error()
		}
	}
	// Replies are verified as in the timed run, which has left each pool
	// entry the reply it checked against the reference: the in-process
	// stack must answer with the same bytes.
	var buf bytes.Buffer
	ctx := context.Background()
	ser := series{}
	cyc := newPoolCycle(rand.New(rand.NewSource(int64(seed)^0x74726163)), len(pool)) // "trac"
	deadline := time.Now().Add(budget)
	for n := 1; n == 1 || time.Now().Before(deadline); n++ {
		r := pool[cyc.next()]
		var err error

		// The same round trip twice, tracing off (nothing recorded inside)
		// and on, in alternating order so that neither always runs second
		// on warm caches.
		var offMs float64
		var begin, done time.Time
		for i := 0; i < 2 && err == nil; i++ {
			if (i+n)%2 == 0 {
				start := time.Now()
				var end time.Time
				end, err = plain.infer(r, &buf)
				offMs = end.Sub(start).Seconds() * 1e3
			} else {
				begin = time.Now()
				done, err = timed.infer(r, &buf)
			}
		}
		if err != nil {
			fail(err)
			continue
		}
		ser.add("untraced", offMs)

		// http ⊃ fleet, nested in time.
		httpID := log.add("http", 0, n, begin, done)
		hs, he := st.timer.last()
		fleetID := log.add("fleet", httpID, n, hs, he)

		// fleet ⊃ decode, serve: executed again through the public functions.
		begin = time.Now()
		_, inputs, err := fleet.DecodeInferRequest(r.body)
		end := time.Now()
		if err != nil {
			fail(err)
			continue
		}
		log.add("fleet.decode", fleetID, n, begin, end)
		ser.add("decode_mb_per_s", float64(len(r.body))/1e6/end.Sub(begin).Seconds())

		begin = time.Now()
		resp, err := st.srv.Infer(ctx, &godisc.Request{Model: r.model + ":1", Inputs: inputs})
		end = time.Now()
		if err != nil {
			fail(err)
			continue
		}
		serveID := log.add("serve", fleetID, n, begin, end)
		ser.add("queue_wait", float64(resp.QueueNs)/1e6)
		ser.add("handler_self", (he.Sub(hs)-end.Sub(begin)).Seconds()*1e3)

		// serve ⊃ exec ⊃ kir.
		begin = time.Now()
		if _, err = served[r.model].RunContext(ctx, inputs); err != nil {
			fail(err)
			continue
		}
		end = time.Now()
		execID := log.add("exec", serveID, n, begin, end)

		begin = time.Now()
		run, err := seq[r.model].RunContext(ctx, inputs)
		end = time.Now()
		if err != nil {
			fail(err)
			continue
		}
		p := run.Profile
		log.add("kir", execID, n, begin, begin.Add(time.Duration(p.KernelWallNs)))
		ser.add("nonkernel", (float64(end.Sub(begin))-p.KernelWallNs)/1e6)
		ser.add("kernel_runs", float64(p.KernelRuns))
		if p.KernelRuns > 0 {
			ser.add("ns_per_kernel_run", p.KernelWallNs/float64(p.KernelRuns))
		}
		ser.add("launches", float64(p.Launches))
		ser.add("library_ops", float64(p.LibraryOps))
		res.Requests++
	}

	// Allocation cost of one engine run, on the engine as served, with
	// nothing else running in this process.
	var before, after runtime.MemStats
	runs := 0
	runtime.ReadMemStats(&before)
	for _, r := range pool {
		if _, err := served[r.model].RunContext(ctx, r.inputs); err != nil {
			fail(err)
			continue
		}
		runs++
	}
	runtime.ReadMemStats(&after)
	if runs > 0 {
		res.Layer["exec.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(runs)
		res.Layer["exec.bytes_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}

	// Per request: each layer's self time; per workload: the medians.
	self := selfTimes(log.spans)
	for _, s := range log.spans {
		ser.add("self."+s.Name, self[s.ID])
		ser.add("span."+s.Name, s.ms())
	}
	med := func(name string) float64 { return median(ser[name]) }
	res.Layer["http.transport_self_ms"] = med("self.http")
	res.Layer["fleet.handler_self_ms"] = med("handler_self")
	res.Layer["fleet.decode_ms"] = med("span.fleet.decode")
	res.Layer["fleet.encode_write_ms"] = med("self.fleet")
	res.Layer["fleet.decode_mb_per_s"] = med("decode_mb_per_s")
	res.Layer["serve.infer_self_ms"] = med("self.serve")
	res.Layer["serve.queue_wait_ms"] = med("queue_wait")
	res.Layer["exec.run_ms"] = med("span.exec")
	res.Layer["exec.nonkernel_ms"] = med("nonkernel")
	res.Layer["exec.launches_per_run"] = med("launches")
	res.Layer["exec.library_ops_per_run"] = med("library_ops")
	res.Layer["kir.kernel_wall_ms"] = med("span.kir")
	res.Layer["kir.kernel_runs_per_run"] = med("kernel_runs")
	res.Layer["kir.ns_per_kernel_run"] = med("ns_per_kernel_run")
	res.Layer["trace.e2e_p50_ms"] = med("span.http")
	res.Layer["trace.overhead_ratio"] = med("span.http") / med("untraced")
	for _, name := range []string{"http", "fleet", "serve", "exec"} {
		if v := med("self." + name); v < -selfNoiseMs {
			res.Negative = append(res.Negative, fmt.Sprintf("%s self time %.3f ms", name, v))
		}
	}
	return nil
}

// pipelineRequestBase is where the request numbers of pipeline passes
// start, apart from those of inference requests.
const pipelineRequestBase = 1 << 20

// tracePipeline is part B of the traced run: for each model of the workload,
// the compile pipeline stage by stage through each layer's public function,
// and the repository lifecycle (cold load, warm load, unload) through the
// fleet. A metric is the sum over the workload's models of the per-model
// median, so that model_churn reads as the cost of one round's worth.
func tracePipeline(res *tracedResult, log *spanLog, w spec, texts map[string]string, repo, cacheDir string, budget time.Duration) error {
	st, err := newStack(repo, cacheDir)
	if err != nil {
		return err
	}
	defer st.close()
	ctx := context.Background()
	for _, m := range w.models {
		if err := st.fl.UnloadModel(ctx, m); err != nil {
			return err
		}
	}
	direct, err := enginecache.Open(filepath.Join(cacheDir, "direct"), "discload")
	if err != nil {
		return err
	}
	dev := godisc.A10()
	perModel := map[string]series{}
	for _, m := range w.models {
		perModel[m] = series{}
	}
	req := pipelineRequestBase
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, m := range w.models {
			req++
			ser := perModel[m]
			// step times one call as a span under parent and adds its
			// duration to the model's series "<name>_ms".
			step := func(name string, parent int, f func() error) (int, error) {
				begin := time.Now()
				err := f()
				end := time.Now()
				ser.add(name+"_ms", end.Sub(begin).Seconds()*1e3)
				if err != nil {
					err = fmt.Errorf("%s of %s: %w", name, m, err)
				}
				return log.add(name, parent, req, begin, end), err
			}

			// Lifecycle through the fleet, as model_churn drives it.
			if err := removeEngines(cacheDir); err != nil {
				return err
			}
			load := func() error { return st.fl.LoadModel(ctx, m) }
			unload := func() error { return st.fl.UnloadModel(ctx, m) }
			for _, op := range []struct {
				name string
				f    func() error
			}{{"fleet.load_cold", load}, {"fleet.unload", unload}, {"fleet.load_warm", load}, {"fleet.unload", unload}} {
				if _, err := step(op.name, 0, op.f); err != nil {
					return err
				}
			}

			// The pipeline, stage by stage, as godisc.CompileWith runs it.
			var (
				g     *graph.Graph
				plan  *fusion.Plan
				exe   *exec.Executable
				image []byte
			)
			pipelineStart := time.Now()
			root := log.add("compile", 0, req, pipelineStart, pipelineStart)
			if _, err := step("graph.parse", root, func() (err error) { g, err = graph.ParseText(texts[m]); return }); err != nil {
				return err
			}
			ser.add("graph.nodes", float64(len(g.Nodes())))
			if _, err := step("opt.run", root, func() error { _, err := opt.Default().Run(g); return err }); err != nil {
				return err
			}
			ser.add("opt.nodes_after", float64(len(g.Nodes())))
			if _, err := step("fusion.plan", root, func() (err error) {
				plan, err = fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
				return
			}); err != nil {
				return err
			}
			ser.add("fusion.groups", float64(len(plan.Groups)))
			eo := exec.DefaultOptions()
			compileID, err := step("exec.compile", root, func() (err error) { exe, err = exec.Compile(g, plan, dev, eo); return })
			if err != nil {
				return err
			}
			// exec.Compile lowers every kernel group through codegen.Lower;
			// lowering them again here gives codegen its own span.
			kernels := 0
			if _, err := step("codegen.lower", compileID, func() error {
				for _, grp := range plan.Groups {
					if grp.Kind == fusion.KLibrary || (eo.AliasViews && len(grp.Nodes) == 1 && grp.Nodes[0].Kind == graph.OpReshape) {
						continue
					}
					if _, err := codegen.Lower(g.Ctx, grp, eo.Codegen); err != nil {
						return err
					}
					kernels++
				}
				return nil
			}); err != nil {
				return err
			}
			ser.add("codegen.kernels", float64(kernels))
			if _, err := step("exec.encode_image", root, func() (err error) { image, err = exe.EncodeImage(); return }); err != nil {
				return err
			}
			ser.add("exec.image_bytes", float64(len(image)))
			if _, err := step("exec.decode_image", root, func() error { _, err := exec.DecodeImage(image, dev, eo); return err }); err != nil {
				return err
			}
			key := m + ":1@discload"
			if _, err := step("enginecache.persist", root, func() error {
				return direct.Persist(&enginecache.Entry{Key: key, Payload: image})
			}); err != nil {
				return err
			}
			if _, err := step("enginecache.load", root, func() error {
				ent, err := direct.Load(key)
				if err == nil && ent == nil {
					err = fmt.Errorf("enginecache: %s not found after persist", key)
				}
				return err
			}); err != nil {
				return err
			}
			log.end(root, time.Now())
		}
	}
	sum := func(name string) float64 {
		var total float64
		for _, m := range w.models {
			total += median(perModel[m][name])
		}
		return total
	}
	for metric := range perModel[w.models[0]] {
		res.Layer[metric] = sum(metric)
	}
	var textBytes float64
	for _, m := range w.models {
		textBytes += float64(len(texts[m]))
	}
	res.Layer["graph.text_bytes"] = textBytes
	// One entry file per model: every pass persisted under the same key.
	entries, err := filepath.Glob(filepath.Join(direct.Dir(), "*.eng"))
	if err != nil {
		return err
	}
	var entryBytes float64
	for _, f := range entries {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		entryBytes += float64(fi.Size())
	}
	res.Layer["enginecache.entry_bytes"] = entryBytes
	return nil
}

// tracedRequestsKept is how many requests per workload keep their spans in
// trace.json; the per-layer medians use every traced request.
const tracedRequestsKept = 1000

// writeTrace writes the spans of every traced workload to path: those of
// the first tracedRequestsKept requests and of every pipeline pass.
func writeTrace(path string, byWorkload map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	kept := make(map[string][]span, len(byWorkload))
	for w, spans := range byWorkload {
		for _, s := range spans {
			if s.Request <= tracedRequestsKept || s.Request >= pipelineRequestBase {
				kept[w] = append(kept[w], s)
			}
		}
	}
	raw, err := json.Marshal(kept)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
