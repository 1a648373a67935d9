// Package fleet is the multi-model HTTP serving front-end: a KServe-style
// v2 inference protocol (JSON over HTTP) layered on a serve.Server, plus
// a model repository with versioning, load/unload lifecycle and
// LRU eviction of idle engines under a shared memory budget.
//
// Routes:
//
//	GET  /v2/health/live
//	GET  /v2/health/ready
//	GET  /v2/models/{model}                        metadata (all versions)
//	GET  /v2/models/{model}/versions/{version}     metadata (one version)
//	GET  /v2/models/{model}/ready                  per-model readiness
//	GET  /v2/models/{model}/versions/{version}/ready
//	POST /v2/models/{model}/infer                  inference (default version)
//	POST /v2/models/{model}/versions/{version}/infer
//	POST /v2/repository/models/{model}/load
//	POST /v2/repository/models/{model}/unload
//	GET  /v2/repository/index                      loaded versions + states
//	GET  /metrics, /debug/trace                    obs endpoints
//
// Request headers: X-Godisc-Priority (interactive | batch | best-effort)
// and X-Godisc-Deadline-Ms (per-request deadline) thread into the serve
// layer's admission policy. Every request runs under an obs span; the
// serve layer nests its infer span beneath it, so HTTP traces contain the
// full infer → exec tree.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"godisc/internal/discerr"
	"godisc/internal/faultinject"
	"godisc/internal/obs"
	"godisc/internal/ral"
	"godisc/internal/serve"
	"godisc/internal/tensor"
)

// Config parameterizes a Fleet.
type Config struct {
	// Server is the inference backend models register with. Required.
	Server *serve.Server
	// Repo is the model repository directory (see repository.go for the
	// layout). Empty disables load/unload (404 on repository routes).
	Repo string
	// Governor is the byte ledger resident engine footprints are charged
	// against; nil defaults to Server.Governor() (possibly nil — then
	// residency is tracked but nothing is ever evicted for space).
	Governor *ral.Governor
	// Metrics receives the fleet counters/gauges; nil gives the fleet a
	// private registry (still served at /metrics).
	Metrics *obs.Registry
	// Observer opens the per-request HTTP spans; Tracer serves
	// /debug/trace. Both optional and typically the same *obs.Tracer.
	Observer obs.Hook
	Tracer   *obs.Tracer
	// MaxBodyBytes caps infer request bodies (default 32 MiB); oversized
	// bodies answer 413.
	MaxBodyBytes int64
	// LoadTimeout bounds footprint reservations and warm compiles during
	// model load (default 30s).
	LoadTimeout time.Duration
	// WatchInterval, when > 0, polls the repository directory and — with
	// AutoLoad — loads models (and new versions of loaded models) that
	// appear in it.
	WatchInterval time.Duration
	AutoLoad      bool
	// Rollout configures health-gated canary rollouts of new versions
	// (rollout.go). Disabled by default: a new version takes the default
	// pin immediately.
	Rollout RolloutConfig
	// Faults, when non-nil, arms the network-layer fault-injection sites
	// (http-read, http-decode, http-write) on the infer path — the
	// `make chaos` hook for the HTTP front-end. Nil is inert.
	Faults *faultinject.Injector
}

// Fleet is the HTTP front-end plus model repository. Build with New,
// serve with Handler() (or Fleet itself as an http.Handler).
type Fleet struct {
	cfg Config
	srv *serve.Server
	gov *ral.Governor
	reg *obs.Registry
	mux *http.ServeMux

	// bufs pools the infer path's wire buffers (*[]byte): one per request,
	// holding first the body and then the reply (handleInfer).
	bufs sync.Pool

	mu     sync.Mutex
	models map[string]*fleetModel
	closed bool

	// rollouts maps model name → its in-flight canary (rollout.go);
	// the ro* / shadow* counters back RolloutStats.
	rollouts                                       map[string]*rollout
	roStarted, roPromoted, roRolledBack, roAborted int64
	shadowMatch, shadowMismatch                    int64

	watchStop chan struct{}
	watchDone chan struct{}
}

// New builds a Fleet over cfg.Server and — when AutoLoad is set — loads
// every model already present in the repository.
func New(cfg Config) (*Fleet, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("fleet: Config.Server is required")
	}
	if cfg.Governor == nil {
		cfg.Governor = cfg.Server.Governor()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.LoadTimeout <= 0 {
		cfg.LoadTimeout = 30 * time.Second
	}
	cfg.Rollout = cfg.Rollout.withDefaults()
	f := &Fleet{
		cfg:      cfg,
		srv:      cfg.Server,
		gov:      cfg.Governor,
		reg:      cfg.Metrics,
		bufs:     sync.Pool{New: func() any { return new([]byte) }},
		models:   map[string]*fleetModel{},
		rollouts: map[string]*rollout{},
	}
	f.setModelsGauge()
	f.buildMux()
	// Per-request outcomes from the serve layer feed the per-version
	// health lattice and the rollout controller's promote/rollback
	// decision (rollout.go).
	f.srv.SetOutcomeHook(f.onOutcome)
	if cfg.AutoLoad && cfg.Repo != "" {
		if err := f.loadAll(context.Background()); err != nil {
			return nil, err
		}
	}
	if cfg.WatchInterval > 0 && cfg.Repo != "" {
		f.watchStop = make(chan struct{})
		f.watchDone = make(chan struct{})
		go f.watch()
	}
	return f, nil
}

// Handler returns the fleet's HTTP handler.
func (f *Fleet) Handler() http.Handler { return f.mux }

// ServeHTTP makes Fleet itself an http.Handler.
func (f *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// Close stops the repository watcher and unloads every model, releasing
// all ledger reservations (eviction reason "shutdown"). It does not shut
// down the underlying serve.Server — the caller owns that.
func (f *Fleet) Close(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	var mvs []*modelVersion
	for name, fm := range f.models {
		for _, mv := range fm.versions {
			mv.state = StateUnloading
			mvs = append(mvs, mv)
		}
		delete(f.models, name)
	}
	f.setModelsGauge()
	f.mu.Unlock()
	f.srv.SetOutcomeHook(nil)
	if f.watchStop != nil {
		close(f.watchStop)
		<-f.watchDone
	}
	var first error
	for _, mv := range mvs {
		if err := f.retireVersion(ctx, mv, "shutdown"); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// loadAll loads every model directory currently in the repository,
// skipping ones that fail (a broken model must not block the rest).
func (f *Fleet) loadAll(ctx context.Context) error {
	entries, err := os.ReadDir(f.cfg.Repo)
	if err != nil {
		return fmt.Errorf("fleet: reading repository %s: %w", f.cfg.Repo, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !validModelName(e.Name()) {
			continue
		}
		_ = f.LoadModel(ctx, e.Name())
	}
	return nil
}

// watch polls the repository, loading new models and new versions of
// loaded models (LoadModel is incremental and idempotent).
func (f *Fleet) watch() {
	defer close(f.watchDone)
	t := time.NewTicker(f.cfg.WatchInterval)
	defer t.Stop()
	for {
		select {
		case <-f.watchStop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.LoadTimeout)
			if f.cfg.AutoLoad {
				_ = f.loadAll(ctx)
			} else {
				// Without AutoLoad only already-loaded models are
				// refreshed with new versions.
				f.mu.Lock()
				names := make([]string, 0, len(f.models))
				for n := range f.models {
					names = append(names, n)
				}
				f.mu.Unlock()
				for _, n := range names {
					_ = f.LoadModel(ctx, n)
				}
			}
			cancel()
		}
	}
}

// --- HTTP plumbing ---------------------------------------------------

// statusWriter records the response code for metrics and spans.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (f *Fleet) buildMux() {
	f.mux = http.NewServeMux()
	f.route("GET /v2/health/live", "/v2/health/live", f.handleLive)
	f.route("GET /v2/health/ready", "/v2/health/ready", f.handleReady)
	f.route("GET /v2/models/{model}", "/v2/models/{model}", f.handleMeta)
	f.route("GET /v2/models/{model}/versions/{version}", "/v2/models/{model}/versions/{version}", f.handleMeta)
	f.route("GET /v2/models/{model}/ready", "/v2/models/{model}/ready", f.handleModelReady)
	f.route("GET /v2/models/{model}/versions/{version}/ready", "/v2/models/{model}/versions/{version}/ready", f.handleModelReady)
	f.route("POST /v2/models/{model}/infer", "/v2/models/{model}/infer", f.handleInfer)
	f.route("POST /v2/models/{model}/versions/{version}/infer", "/v2/models/{model}/versions/{version}/infer", f.handleInfer)
	f.route("POST /v2/repository/models/{model}/load", "/v2/repository/models/{model}/load", f.handleLoad)
	f.route("POST /v2/repository/models/{model}/unload", "/v2/repository/models/{model}/unload", f.handleUnload)
	f.route("GET /v2/repository/index", "/v2/repository/index", f.handleIndex)
	omux := obs.Mux(f.reg, f.cfg.Tracer)
	f.mux.Handle("/metrics", omux)
	f.mux.Handle("/debug/trace", omux)
}

// route registers a handler wrapped with the span/metrics envelope. The
// route label is the pattern, not the raw path, so metric cardinality is
// bounded by the route table.
func (f *Fleet) route(pattern, label string, h func(http.ResponseWriter, *http.Request)) {
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var sp *obs.Span
		if f.cfg.Observer != nil {
			sp = f.cfg.Observer.StartSpan("http",
				obs.A("route", label), obs.A("method", r.Method))
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		// Deferred so an aborted connection — panic(http.ErrAbortHandler),
		// the http-write fault site's broken pipe — still ends the span
		// and counts the request before the panic reaches net/http.
		defer func() {
			if sp != nil {
				sp.SetAttr("code", strconv.Itoa(sw.code))
				sp.End()
			}
			f.reg.Counter("godisc_http_requests_total",
				obs.L("code", strconv.Itoa(sw.code)), obs.L("route", label)).Inc()
		}()
		h(sw, r)
	})
}

// fail writes the JSON error envelope for err at its mapped status.
// Every 429/503 is a retry-with-backoff outcome (shed load, temporary
// unavailability), so those responses carry a Retry-After hint.
func (f *Fleet) fail(w http.ResponseWriter, err error) {
	code := StatusFor(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (f *Fleet) evictionCounter(reason string) *obs.Counter {
	return f.reg.Counter("godisc_fleet_evictions_total", obs.L("reason", reason))
}

// setModelsGauge publishes the loaded-model count. Caller holds f.mu.
func (f *Fleet) setModelsGauge() {
	f.reg.Gauge("godisc_fleet_models").Set(float64(len(f.models)))
}

// --- handlers ---------------------------------------------------------

func (f *Fleet) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"live": true})
}

func (f *Fleet) handleReady(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

func (f *Fleet) handleModelReady(w http.ResponseWriter, r *http.Request) {
	mv, err := f.resolve(r.PathValue("model"), r.PathValue("version"))
	if err != nil {
		f.fail(w, err)
		return
	}
	f.mu.Lock()
	state, health := mv.state, mv.health.state
	f.mu.Unlock()
	// A canary is serving traffic, so it is ready; a quarantined version
	// sheds everything but probes, so it is not.
	ready := state == StateReady || state == StateCanary
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ready": ready, "state": state, "health": health})
}

func (f *Fleet) handleMeta(w http.ResponseWriter, r *http.Request) {
	model, version := r.PathValue("model"), r.PathValue("version")
	mv, err := f.resolve(model, version)
	if err != nil {
		f.fail(w, err)
		return
	}
	meta := mv.meta
	if version == "" {
		// Model-level metadata lists every loaded version.
		f.mu.Lock()
		if fm := f.models[model]; fm != nil {
			for v := range fm.versions {
				meta.Versions = append(meta.Versions, v)
			}
		}
		f.mu.Unlock()
		sortVersions(meta.Versions)
	} else {
		meta.Versions = []string{version}
	}
	writeJSON(w, http.StatusOK, meta)
}

func (f *Fleet) handleIndex(w http.ResponseWriter, r *http.Request) {
	idx := f.Index()
	if idx == nil {
		idx = []ModelStatus{}
	}
	writeJSON(w, http.StatusOK, idx)
}

func (f *Fleet) handleLoad(w http.ResponseWriter, r *http.Request) {
	if f.cfg.Repo == "" {
		f.fail(w, &httpError{code: http.StatusNotFound, msg: "fleet: no model repository configured"})
		return
	}
	name := r.PathValue("model")
	if err := f.LoadModel(r.Context(), name); err != nil {
		f.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name, "state": StateReady})
}

func (f *Fleet) handleUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	if err := f.UnloadModel(r.Context(), name); err != nil {
		f.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name, "state": "UNLOADED"})
}

// parsePriority maps the X-Godisc-Priority header to the serve lattice.
func parsePriority(h string) (serve.Priority, error) {
	switch h {
	case "", "batch":
		return serve.PriorityBatch, nil
	case "interactive":
		return serve.PriorityInteractive, nil
	case "best-effort":
		return serve.PriorityBestEffort, nil
	}
	return 0, &httpError{code: http.StatusBadRequest,
		msg: fmt.Sprintf("fleet: unknown priority %q (want interactive | batch | best-effort)", h)}
}

// inferRoute is one infer request's routing decision (routeInfer).
type inferRoute struct {
	mv *modelVersion
	// stable, in canary-split mode, is the default version a failing
	// canary-routed request is transparently re-served on.
	stable *modelVersion
	// shadow, in shadow mode, is the canary the stable response is
	// mirrored onto for bit-wise comparison.
	shadow *modelVersion
	// probe marks a half-open health probe of a quarantined version; the
	// caller owns the version's single probing slot.
	probe bool
}

// routeInfer resolves (model, version) with the rollout controller's
// routing rules. Explicit versions serve directly — except QUARANTINED
// ones, which shed with discerr.ErrVersionQuarantined unless the probe
// cooldown admits one half-open probe. Default-pin requests stay on the
// stable default, with every Nth routed to (split mode) or mirrored onto
// (shadow mode) an active canary.
func (f *Fleet) routeInfer(model, version string) (inferRoute, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fm := f.models[model]
	if fm == nil {
		return inferRoute{}, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q is not loaded", model)}
	}
	if version != "" {
		mv := fm.versions[version]
		if mv == nil {
			return inferRoute{}, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q has no version %q", model, version)}
		}
		if mv.state == StateQuarantined {
			if mv.health.allowProbe(time.Now()) {
				return inferRoute{mv: mv, probe: true}, nil
			}
			return inferRoute{}, fmt.Errorf("fleet: model %s: %w", mv.regName, discerr.ErrVersionQuarantined)
		}
		return inferRoute{mv: mv}, nil
	}
	def := fm.versions[fm.defaultVersion]
	if def == nil {
		return inferRoute{}, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("fleet: model %q has no version %q", model, fm.defaultVersion)}
	}
	ro := f.rollouts[model]
	if ro == nil {
		return inferRoute{mv: def}, nil
	}
	canary := fm.versions[ro.canary]
	if canary == nil || canary.state != StateCanary {
		return inferRoute{mv: def}, nil
	}
	ro.ticker++
	if ro.ticker%ro.every != 0 {
		return inferRoute{mv: def}, nil
	}
	if f.cfg.Rollout.Shadow {
		return inferRoute{mv: def, shadow: canary}, nil
	}
	return inferRoute{mv: canary, stable: def}, nil
}

// probeDone resolves a half-open probe: success brings the version back
// as READY/DEGRADED (healthy traffic walks it to HEALTHY), failure
// restarts the quarantine cooldown.
func (f *Fleet) probeDone(mv *modelVersion, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mv.health.probeResult(ok, time.Now())
	if ok {
		mv.state = StateReady
		mv.reason = ""
	}
	f.setHealthGauge(mv)
}

// stateOf reads mv's lifecycle state under the fleet lock.
func (f *Fleet) stateOf(mv *modelVersion) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return mv.state
}

// runShadow mirrors a stable response's inputs onto the canary and
// compares the output tensors bit-wise. The client's response is already
// decided; this only feeds the rollout verdict (shadowResult). A canary
// that was rolled back mid-request simply skips the comparison.
func (f *Fleet) runShadow(ctx context.Context, canary *modelVersion, inputs []*tensor.Tensor, prio serve.Priority, stable []*tensor.Tensor) {
	if err := f.acquireFor(ctx, canary, false); err != nil {
		return
	}
	resp, err := f.srv.Infer(ctx, &serve.Request{Model: canary.regName, Inputs: inputs, Priority: prio})
	f.releaseActive(canary)
	if err != nil {
		return // the outcome hook already recorded the failure
	}
	f.shadowResult(canary.model, canary.version, slices.EqualFunc(resp.Outputs, stable, sameBits))
}

// sameBits reports whether two tensors agree in dtype, shape and every
// element's bit pattern (so -0 differs from 0). handleInfer shadows only
// after the stable outputs encoded, i.e. are finite, so a NaN or ±Inf in
// the canary can never compare equal.
func sameBits(a, b *tensor.Tensor) bool {
	if a.DType() != b.DType() || !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	switch a.DType() {
	case tensor.F32:
		return slices.EqualFunc(a.F32(), b.F32(), func(x, y float32) bool {
			return math.Float32bits(x) == math.Float32bits(y)
		})
	case tensor.I32:
		return slices.Equal(a.I32(), b.I32())
	case tensor.Bool:
		return slices.Equal(a.Bools(), b.Bools())
	}
	return false
}

// readBody reads r to EOF into buf's storage, growing it as io.ReadAll
// would. A positive hint (the declared Content-Length) sizes the buffer
// once, with a byte to spare so the read that meets EOF never grows it.
func readBody(r io.Reader, buf []byte, hint int64) ([]byte, error) {
	buf = buf[:0]
	if need := max(hint+1, 512); int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

func (f *Fleet) handleInfer(w http.ResponseWriter, r *http.Request) {
	model, version := r.PathValue("model"), r.PathValue("version")
	prio, err := parsePriority(r.Header.Get("X-Godisc-Priority"))
	if err != nil {
		f.fail(w, err)
		return
	}
	ctx := r.Context()
	if h := r.Header.Get("X-Godisc-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			f.fail(w, &httpError{code: http.StatusBadRequest,
				msg: fmt.Sprintf("fleet: bad X-Godisc-Deadline-Ms %q", h)})
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	// Network-layer fault sites (faultinject): a firing http-read probe is
	// a body that never arrived (or, in latency mode, a stalled upload), a
	// firing http-decode probe a payload corrupted in flight. Both happen
	// before any acquire, so — like real hostile clients — they can never
	// leak a governor reservation or count against version health.
	if ferr := f.cfg.Faults.Check(faultinject.SiteHTTPRead); ferr != nil {
		f.fail(w, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("fleet: reading body: %v", ferr)})
		return
	}
	// One pooled buffer serves the whole exchange: it holds the body until
	// DecodeInferRequest — whose results never alias it — returns, then the
	// reply until the single Write at the bottom. The deferred Put covers
	// every exit, the http-write site's panic included: net/http keeps no
	// reference to a slice once Write has returned. A Content-Length the
	// body cap already refuses sizes nothing, and a buffer that outgrew the
	// cap is left to the collector rather than pinned in the pool.
	buf := f.bufs.Get().(*[]byte)
	defer func() {
		if int64(cap(*buf)) <= f.cfg.MaxBodyBytes {
			f.bufs.Put(buf)
		}
	}()
	hint := r.ContentLength
	if hint > f.cfg.MaxBodyBytes {
		hint = 0
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes), *buf, hint)
	*buf = body
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			f.fail(w, err)
			return
		}
		f.fail(w, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("fleet: reading body: %v", err)})
		return
	}
	if ferr := f.cfg.Faults.Check(faultinject.SiteHTTPDecode); ferr != nil {
		f.fail(w, &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf("fleet: malformed request body: %v", ferr)})
		return
	}
	req, inputs, err := DecodeInferRequest(body)
	if err != nil {
		f.fail(w, err)
		return
	}
	rt, err := f.routeInfer(model, version)
	if err != nil {
		f.fail(w, err)
		return
	}
	mv := rt.mv
	if err := f.acquireFor(ctx, mv, rt.probe); err != nil {
		if rt.probe {
			f.probeDone(mv, false)
		}
		f.fail(w, err)
		return
	}
	resp, err := f.srv.Infer(ctx, &serve.Request{Model: mv.regName, Inputs: inputs, Priority: prio})
	f.releaseActive(mv)
	if rt.probe {
		f.probeDone(mv, err == nil && !resp.Fallback)
	}
	if err != nil && rt.stable != nil && StatusFor(err) >= 500 {
		// Self-healing: a canary-routed default-pin request whose canary
		// failed server-side is re-served on the stable version — the
		// rollback (driven by the outcome hook) happens independently,
		// and the client never sees a canary 5xx.
		mv = rt.stable
		if aerr := f.acquire(ctx, mv); aerr != nil {
			f.fail(w, aerr)
			return
		}
		resp, err = f.srv.Infer(ctx, &serve.Request{Model: mv.regName, Inputs: inputs, Priority: prio})
		f.releaseActive(mv)
	}
	if err != nil {
		// An explicit-version request whose failure triggered (or raced)
		// its own rollback: the version is quarantined now, so classify
		// the loss as the rollout's, wrapping the underlying cause.
		if version != "" && !rt.probe && f.stateOf(rt.mv) == StateQuarantined {
			err = fmt.Errorf("fleet: model %s rolled back: %w: %w", rt.mv.regName, discerr.ErrRolloutAborted, err)
		}
		f.fail(w, err)
		return
	}
	reply, err := appendInferResponse(body[:0], mv.model, mv.version, req.ID, resp)
	if err != nil {
		f.fail(w, err)
		return
	}
	*buf = reply
	if rt.shadow != nil {
		f.runShadow(ctx, rt.shadow, inputs, prio, resp.Outputs)
	}
	// The http-write site fires after the response is fully decided: an
	// injected error aborts the connection mid-response (the client sees
	// a broken pipe, never a wrong or partial-but-parseable answer);
	// latency mode models a slow downstream reader.
	if ferr := f.cfg.Faults.Check(faultinject.SiteHTTPWrite); ferr != nil {
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(reply)
}
