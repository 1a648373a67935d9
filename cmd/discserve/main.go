// Command discserve drives a dynamic-shape workload trace through the
// concurrent serving runtime (godisc.Server): N workers replay requests
// with shapes drawn from a chosen distribution against one or more zoo
// models, exercising the signature-keyed engine cache, bounded admission
// and per-request deadlines, then print the serving counters — the
// paper's compilation-cache story under production-style concurrency.
//
//	discserve -models bert,mlp -dist zipf -requests 200 -workers 8
//
// With -faults (or GODISC_FAULTS) a deterministic fault injector arms the
// compile/alloc/kernel-launch probes in every compiled engine, and the
// report adds the resilience counters: interpreter fallbacks, retries and
// circuit-breaker activity.
//
//	discserve -faults "kernel-launch:panic:0.2,alloc:transient:0.2" -fault-seed 7
//
// With -cache-dir the server persists every compiled engine and reloads
// it on the next run — a warm restart serves entirely from disk, zero
// compilations — and the startup report counts loaded / corrupt /
// fingerprint-mismatched entries. A signature missing from both caches
// compiles once, on the request that first needs it; -warm moves that
// compile ahead of the replay.
//
//	discserve -cache-dir /var/cache/godisc -warm
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"godisc"
	"godisc/internal/device"
	"godisc/internal/models"
	"godisc/internal/obs"
	"godisc/internal/tensor"
	"godisc/internal/workload"
)

// options collects everything run needs, mirroring the flags.
type options struct {
	Models       string        // comma-separated zoo model names
	Dist         string        // workload distribution name
	Device       string        // device model name
	Requests     int           // trace length
	Workers      int           // client goroutines == server MaxConcurrent
	Queue        int           // admission queue depth
	MaxBatch     int           // trace batch bound
	MaxSeq       int           // trace sequence-length bound
	Deadline     time.Duration // per-request deadline (0 = none)
	Warm         bool          // precompile before replaying
	Seed         uint64        // trace generator seed
	Faults       string        // fault-injection spec ("" = no faults)
	FaultSeed    uint64        // fault injector seed
	DrainTimeout time.Duration // graceful-shutdown deadline
	MemBudget    int64         // pooled-memory budget in bytes (0 = off)
	Watchdog     float64       // hung-request watchdog multiple (0 = off)
	BatchMax     int           // dynamic-batching window cap (<=1 = off)
	BatchLinger  time.Duration // dynamic-batching max linger (0 = default)
	Quotas       string        // per-model quotas "model=n,model=n"
	PriorityMix  string        // "I:B:E" weights for request priorities
	CacheDir     string        // persistent engine cache dir ("" = off)
	HTTP         string        // observability listen address ("" = off)
	TraceOut     string        // write Chrome trace_event file here ("" = off)
	TraceLimit   int           // request-trace ring capacity (0 = default)
	Serve        string        // fleet HTTP listen address ("" = trace-replay mode)
	ModelRepo    string        // model repository directory (fleet mode)
	Watch        time.Duration // repository poll interval (0 = off)

	// HTTP server hardening: slow-loris protection on every listener.
	ReadHeaderTimeout time.Duration // time to read request headers
	ReadTimeout       time.Duration // time to read the whole request
	WriteTimeout      time.Duration // time to write the whole response
	IdleTimeout       time.Duration // keep-alive idle connection timeout

	// Rollout controller (fleet mode): new versions canary before taking
	// the default pin, regressions roll back automatically.
	Rollout        bool          // enable health-gated canary rollouts
	CanaryFraction float64       // share of default-pin traffic on the canary
	PromoteAfter   int           // successful canary requests before promotion
	MaxErrorRate   float64       // error-rate EWMA rollback threshold
	Shadow         bool          // mirror traffic and compare outputs bit-wise
	ProbeCooldown  time.Duration // quarantine → half-open probe delay

	// ready, when set, is invoked after the replay finished and stats
	// printed, while the observability listener is still serving — the
	// hook the end-to-end scrape test uses.
	ready func(addr string)
}

func main() {
	var o options
	flag.StringVar(&o.Models, "models", "mlp", "comma-separated zoo models to serve")
	flag.StringVar(&o.Dist, "dist", "zipf", fmt.Sprintf("shape distribution %v", workload.Names()))
	flag.IntVar(&o.Requests, "requests", 200, "trace length")
	flag.IntVar(&o.Workers, "workers", 8, "concurrent client goroutines (also the server's MaxConcurrent)")
	flag.IntVar(&o.Queue, "queue", 64, "admission queue depth")
	flag.IntVar(&o.MaxBatch, "maxbatch", 8, "max batch size in the trace")
	flag.IntVar(&o.MaxSeq, "maxseq", 128, "max sequence length in the trace")
	flag.StringVar(&o.Device, "device", "A10", "device model: A10 or T4")
	flag.DurationVar(&o.Deadline, "deadline", 0, "per-request deadline (0 = none)")
	flag.BoolVar(&o.Warm, "warm", false, "precompile every model before replaying")
	flag.Uint64Var(&o.Seed, "seed", 42, "trace generator seed")
	flag.StringVar(&o.Faults, "faults", os.Getenv("GODISC_FAULTS"),
		"fault spec site:mode:rate[:latency][,...] (default $GODISC_FAULTS)")
	flag.Uint64Var(&o.FaultSeed, "fault-seed", 1, "fault injector seed")
	flag.DurationVar(&o.DrainTimeout, "drain-timeout", 5*time.Second, "graceful shutdown deadline")
	flag.Int64Var(&o.MemBudget, "mem-budget", 0,
		"pooled-buffer memory budget in bytes shared by all engines (0 = ungoverned)")
	flag.Float64Var(&o.Watchdog, "watchdog", 0,
		"cancel runs exceeding this multiple of their signature's historical latency (0 = off)")
	flag.IntVar(&o.BatchMax, "max-batch", 0,
		"coalesce up to this many rows of concurrent same-signature requests into one engine run (<=1 = off)")
	flag.DurationVar(&o.BatchLinger, "max-linger", 0,
		"longest a request may wait for batch-mates (0 = server default; needs -max-batch > 1)")
	flag.StringVar(&o.Quotas, "quotas", "",
		"per-model concurrency quotas, e.g. bert=4,mlp=2 (unlisted models unlimited)")
	flag.StringVar(&o.PriorityMix, "priority-mix", "",
		"interactive:batch:best-effort request weights, e.g. 1:2:1 (empty = all batch)")
	flag.StringVar(&o.CacheDir, "cache-dir", "",
		"persist compiled engines here and reload them on restart (empty = off)")
	flag.StringVar(&o.HTTP, "http", "",
		"serve /metrics (Prometheus text) and /debug/trace on this address (e.g. :9090; empty = off)")
	flag.StringVar(&o.TraceOut, "trace-out", "",
		"write the request traces as a Chrome trace_event file (open in chrome://tracing or Perfetto)")
	flag.IntVar(&o.TraceLimit, "trace-limit", 0, "request traces retained in the ring (0 = default 256)")
	flag.StringVar(&o.Serve, "serve", "",
		"serve the KServe-style v2 inference protocol on this address (e.g. :8000) instead of replaying a trace; requires -model-repo")
	flag.StringVar(&o.ModelRepo, "model-repo", "",
		"model repository directory: <model>/<version>/model.graph (fleet mode)")
	flag.DurationVar(&o.Watch, "watch", 0,
		"poll the model repository at this interval and load new models/versions (0 = off)")
	flag.DurationVar(&o.ReadHeaderTimeout, "http-read-header-timeout", 5*time.Second,
		"HTTP header read timeout on every listener (slow-loris protection; 0 = none)")
	flag.DurationVar(&o.ReadTimeout, "http-read-timeout", 10*time.Second,
		"HTTP full-request read timeout on every listener (0 = none)")
	flag.DurationVar(&o.WriteTimeout, "http-write-timeout", 30*time.Second,
		"HTTP response write timeout on every listener (0 = none)")
	flag.DurationVar(&o.IdleTimeout, "http-idle-timeout", 120*time.Second,
		"HTTP keep-alive idle connection timeout on every listener (0 = none)")
	flag.BoolVar(&o.Rollout, "rollout", false,
		"canary new model versions behind health gating instead of repinning the default immediately (fleet mode)")
	flag.Float64Var(&o.CanaryFraction, "canary-fraction", 0,
		"share of default-pin traffic routed to (or shadowed onto) a canary (0 = default 0.1)")
	flag.IntVar(&o.PromoteAfter, "promote-after", 0,
		"successful canary requests required before promotion (0 = default 50)")
	flag.Float64Var(&o.MaxErrorRate, "max-error-rate", 0,
		"canary error-rate EWMA above which it rolls back (0 = default 0.1)")
	flag.BoolVar(&o.Shadow, "shadow", false,
		"shadow mode: the canary mirrors sampled stable traffic, bit-wise output comparison gates promotion")
	flag.DurationVar(&o.ProbeCooldown, "probe-cooldown", 0,
		"wait before a quarantined version admits one half-open probe (0 = default 15s)")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "discserve:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	if o.Serve != "" {
		return runServe(o, w)
	}
	dev, err := device.ByName(o.Device)
	if err != nil {
		return err
	}
	var ms []*models.Model
	for _, name := range strings.Split(o.Models, ",") {
		m, err := models.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ms = append(ms, m)
	}
	inj, err := godisc.FaultsFromSpec(o.Faults, o.FaultSeed)
	if err != nil {
		return err
	}

	// Observability: tracer + metrics registry when any sink (the HTTP
	// endpoints or the trace file) wants them; otherwise nil, so the
	// request path pays only its disabled-state nil branches.
	quotas, err := parseQuotas(o.Quotas)
	if err != nil {
		return err
	}
	mix, err := parsePriorityMix(o.PriorityMix)
	if err != nil {
		return err
	}

	var tracer *godisc.Tracer
	var reg *godisc.Metrics
	scfg := godisc.ServerConfig{
		MaxConcurrent: o.Workers, QueueDepth: o.Queue,
		MemoryBudgetBytes: o.MemBudget, WatchdogMultiple: o.Watchdog, ModelQuotas: quotas,
		MaxBatchSize: o.BatchMax, MaxLinger: o.BatchLinger,
		CacheDir: o.CacheDir,
	}
	if o.HTTP != "" || o.TraceOut != "" {
		tracer = godisc.NewTracer(o.TraceLimit)
		reg = godisc.NewMetrics()
		scfg.Observer = tracer
		scfg.Metrics = reg
		inj.SetMetrics(reg)
	}

	srv := godisc.NewServer(scfg,
		godisc.WithDevice(dev),
		godisc.WithFaults(inj),
	)
	if ec := srv.EngineCache(); ec != nil {
		// Sweep the cache before taking traffic so the report reflects
		// what will actually serve: damaged or stale entries are
		// quarantined now rather than at first request.
		rep, err := ec.Scan()
		if err != nil {
			fmt.Fprintf(w, "engine cache %s: unscannable (%v), serving without persistence\n", ec.Dir(), err)
		} else {
			fmt.Fprintf(w, "engine cache %s: %d engines loaded, %d corrupt quarantined, %d fingerprint-mismatch quarantined\n",
				ec.Dir(), rep.Valid, rep.Corrupt, rep.Mismatch)
		}
	} else if o.CacheDir != "" {
		fmt.Fprintf(w, "engine cache %s: unopenable, serving without persistence\n", o.CacheDir)
	}

	var obsLn net.Listener
	if o.HTTP != "" {
		obsLn, err = net.Listen("tcp", o.HTTP)
		if err != nil {
			return fmt.Errorf("observability listener: %w", err)
		}
		obsSrv := hardenedServer(obs.Mux(reg, tracer), o)
		go obsSrv.Serve(obsLn)
		defer obsSrv.Close()
		fmt.Fprintf(w, "observability: http://%s/metrics and /debug/trace\n", obsLn.Addr())
	}
	drained := false
	defer func() {
		if !drained {
			srv.Close()
		}
	}()
	for _, m := range ms {
		if err := srv.Register(m.Name, m.Build); err != nil {
			return err
		}
	}
	if o.Warm {
		start := time.Now()
		for _, m := range ms {
			if err := srv.Warm(m.Name); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "warmed %d engines in %v\n", len(ms), time.Since(start).Round(time.Millisecond))
	}

	tr, err := workload.ByName(o.Dist, workload.Spec{
		Requests: o.Requests, MaxBatch: o.MaxBatch, MaxSeq: o.MaxSeq, Seed: o.Seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replaying %s over %s on %s with %d workers (queue %d)\n",
		tr, o.Models, o.Device, o.Workers, o.Queue)
	if inj != nil {
		fmt.Fprintf(w, "fault injection armed: %s (seed %d)\n", o.Faults, inj.Seed())
	}

	start := time.Now()
	var rejected, canceled, failed int
	errs := workload.Replay(tr, o.Workers, func(i int, p workload.Point) error {
		m := ms[i%len(ms)]
		seq := p.Seq
		if seq > m.MaxSeq {
			seq = m.MaxSeq
		}
		inputs := m.GenInputs(tensor.NewRNG(o.Seed+uint64(i)), p.Batch, seq)
		ctx := context.Background()
		if o.Deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, o.Deadline)
			defer cancel()
		}
		_, err := srv.Infer(ctx, &godisc.Request{
			Model: m.Name, Inputs: inputs, Priority: mix.pick(i),
		})
		return err
	})
	wall := time.Since(start)
	var firstFailure error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, godisc.ErrQueueFull),
			errors.Is(err, godisc.ErrDeadlineInfeasible),
			errors.Is(err, godisc.ErrQuotaExceeded),
			errors.Is(err, godisc.ErrMemoryBudget):
			// Governance rejections are expected overload behaviour, not
			// replay failures.
			rejected++
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			canceled++
		default:
			failed++
			if firstFailure == nil {
				firstFailure = err
			}
		}
	}
	if firstFailure != nil {
		return fmt.Errorf("%d requests failed, first: %w", failed, firstFailure)
	}

	// Graceful drain: stop admission, wait for in-flight work up to the
	// deadline, then force-cancel stragglers.
	drainCtx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	drained = true

	st := srv.Stats()
	fmt.Fprintf(w, "done in %v wall (%d rejected, %d deadline-expired)\n",
		wall.Round(time.Millisecond), rejected, canceled)
	fmt.Fprintf(w, "  %s\n", st)
	fmt.Fprintf(w, "  distinct shapes served: %d; engines compiled: %d (one per symbolic signature)\n",
		tr.DistinctShapes(), st.Engines)
	if st.Completed > 0 {
		fmt.Fprintf(w, "  simulated device time: total %.2fms, mean %.1fµs/request\n",
			st.TotalSimNs/1e6, st.TotalSimNs/float64(st.Completed)/1e3)
	}
	if inj != nil || st.FallbackRuns > 0 {
		fmt.Fprintf(w, "  resilience: %d fallback runs, %d retries, %d kernel panics, breaker %d opens / %d short-circuits\n",
			st.FallbackRuns, st.Retries, st.KernelPanics, st.BreakerOpens, st.BreakerShortCircuits)
		if inj != nil {
			fmt.Fprintf(w, "  faults fired: %d %v\n", inj.Total(), inj.Counts())
		}
	}
	if o.BatchMax > 1 {
		var avg float64
		if st.BatchedRuns > 0 {
			avg = float64(st.BatchedRequests) / float64(st.BatchedRuns)
		}
		fmt.Fprintf(w, "  batching: %d requests coalesced into %d runs (%.1f req/run)\n",
			st.BatchedRequests, st.BatchedRuns, avg)
	}
	if st.EngineLoads+st.EnginePersists+st.EngineCorrupt+st.EngineMismatch > 0 {
		fmt.Fprintf(w, "  engine cache: %d loaded from disk, %d persisted, %d corrupt, %d fingerprint-mismatch; %d fresh compilations\n",
			st.EngineLoads, st.EnginePersists, st.EngineCorrupt, st.EngineMismatch, st.Compilations)
	}
	if st.Shed+st.QueueFullRejections+st.DeadlineInfeasible+st.QuotaRejections+
		st.MemoryRejections+st.WatchdogCancels > 0 {
		fmt.Fprintf(w, "  governance: %d shed, %d queue-full, %d infeasible deadlines, %d over quota, %d over memory budget, %d watchdog cancels\n",
			st.Shed, st.QueueFullRejections, st.DeadlineInfeasible, st.QuotaRejections,
			st.MemoryRejections, st.WatchdogCancels)
	}
	if st.MemBudgetBytes > 0 {
		fmt.Fprintf(w, "  memory budget: %d bytes, high-water %d (%.0f%%), %d reservation waits\n",
			st.MemBudgetBytes, st.MemHighWaterBytes,
			100*float64(st.MemHighWaterBytes)/float64(st.MemBudgetBytes), st.MemWaits)
	}
	if drainErr != nil {
		fmt.Fprintf(w, "  drain: forced after %v (%v)\n", o.DrainTimeout, drainErr)
	} else {
		fmt.Fprintf(w, "  drain: clean\n")
	}
	if o.TraceOut != "" {
		f, err := os.Create(o.TraceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		total, dropped := tracer.Recorded()
		fmt.Fprintf(w, "  traces: %d recorded (%d evicted) → %s\n", total, dropped, o.TraceOut)
	}
	if o.ready != nil && obsLn != nil {
		o.ready(obsLn.Addr().String())
	}
	return nil
}

// runServe is fleet mode: a long-running v2 inference HTTP server over a
// model repository, instead of a finite trace replay.
//
//	discserve -serve :8000 -model-repo /var/lib/godisc/models -cache-dir /var/cache/godisc
func runServe(o options, w io.Writer) error {
	if o.ModelRepo == "" {
		return fmt.Errorf("-serve requires -model-repo")
	}
	dev, err := device.ByName(o.Device)
	if err != nil {
		return err
	}
	inj, err := godisc.FaultsFromSpec(o.Faults, o.FaultSeed)
	if err != nil {
		return err
	}
	quotas, err := parseQuotas(o.Quotas)
	if err != nil {
		return err
	}
	tracer := godisc.NewTracer(o.TraceLimit)
	reg := godisc.NewMetrics()
	inj.SetMetrics(reg)
	srv := godisc.NewServer(godisc.ServerConfig{
		MaxConcurrent: o.Workers, QueueDepth: o.Queue,
		MemoryBudgetBytes: o.MemBudget, WatchdogMultiple: o.Watchdog, ModelQuotas: quotas,
		MaxBatchSize: o.BatchMax, MaxLinger: o.BatchLinger,
		CacheDir: o.CacheDir,
		Observer: tracer, Metrics: reg,
	}, godisc.WithDevice(dev), godisc.WithFaults(inj))
	fl, err := godisc.NewFleet(godisc.FleetConfig{
		Server: srv, Repo: o.ModelRepo,
		Metrics: reg, Observer: tracer, Tracer: tracer,
		AutoLoad: true, WatchInterval: o.Watch,
		Faults: inj,
		Rollout: godisc.RolloutConfig{
			Enabled: o.Rollout || o.Shadow, CanaryFraction: o.CanaryFraction,
			PromoteAfter: o.PromoteAfter, MaxErrorRate: o.MaxErrorRate,
			Shadow: o.Shadow, ProbeCooldown: o.ProbeCooldown,
		},
	})
	if err != nil {
		srv.Close()
		return err
	}
	ln, err := net.Listen("tcp", o.Serve)
	if err != nil {
		return fmt.Errorf("fleet listener: %w", err)
	}
	httpSrv := hardenedServer(fl, o)
	fmt.Fprintf(w, "fleet serving %s on http://%s (v2 protocol; /metrics, /debug/trace)\n",
		o.ModelRepo, ln.Addr())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	if o.ready != nil {
		o.ready(ln.Addr().String())
	}
	select {
	case <-stop:
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(drainCtx)
	if rs := fl.RolloutStats(); o.Rollout || o.Shadow || rs.Started > 0 {
		fmt.Fprintf(w, "rollouts: %d started, %d promoted, %d rolled back, %d aborted; shadow %d match / %d mismatch\n",
			rs.Started, rs.Promoted, rs.RolledBack, rs.Aborted, rs.ShadowMatches, rs.ShadowMismatches)
		for _, a := range rs.Active {
			fmt.Fprintf(w, "  rollout in flight: %s\n", a)
		}
		for _, q := range rs.Quarantined {
			fmt.Fprintf(w, "  quarantined: %s\n", q)
		}
	}
	if err := fl.Close(drainCtx); err != nil {
		fmt.Fprintf(w, "fleet close: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(w, "drain: forced (%v)\n", err)
	} else {
		fmt.Fprintln(w, "drain: clean")
	}
	return nil
}

// hardenedServer builds an http.Server with the configured read / write /
// idle timeouts so a slow or hostile client cannot pin a connection (and
// its goroutine) forever. Applied to every listener discserve opens.
func hardenedServer(h http.Handler, o options) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: o.ReadHeaderTimeout,
		ReadTimeout:       o.ReadTimeout,
		WriteTimeout:      o.WriteTimeout,
		IdleTimeout:       o.IdleTimeout,
	}
}

// parseQuotas reads "model=n,model=n" into ServerConfig.ModelQuotas.
func parseQuotas(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	quotas := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("quotas: %q is not model=n", part)
		}
		var n int
		if _, err := fmt.Sscanf(val, "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("quotas: %q needs a positive count", part)
		}
		quotas[strings.TrimSpace(name)] = n
	}
	return quotas, nil
}

// priorityMix deals priorities deterministically by request index, in
// proportion to the configured interactive:batch:best-effort weights.
type priorityMix struct {
	weights [3]int // interactive, batch, best-effort
	total   int
}

func parsePriorityMix(spec string) (*priorityMix, error) {
	if spec == "" {
		return &priorityMix{}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("priority-mix: %q is not I:B:E", spec)
	}
	var m priorityMix
	for i, p := range parts {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &n); err != nil || n < 0 {
			return nil, fmt.Errorf("priority-mix: %q needs non-negative weights", spec)
		}
		m.weights[i] = n
		m.total += n
	}
	if m.total == 0 {
		return nil, fmt.Errorf("priority-mix: %q has zero total weight", spec)
	}
	return &m, nil
}

func (m *priorityMix) pick(i int) godisc.Priority {
	if m.total == 0 {
		return godisc.PriorityBatch
	}
	switch r := i % m.total; {
	case r < m.weights[0]:
		return godisc.PriorityInteractive
	case r < m.weights[0]+m.weights[1]:
		return godisc.PriorityBatch
	default:
		return godisc.PriorityBestEffort
	}
}
