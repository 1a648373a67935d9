package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setups is how many times a run that reports setup_s launches the server
// and warms it up; setup_s is the median, and the last launch serves the
// measured phases.
const setups = 5

// openShare is the open-loop phase's part of a run's measured time
// (--seconds); the closed-loop phase gets the rest. The closed loop gets the
// larger part because its metric is the one a busy host moves most.
const openShare = 3.0 / 7.0

// rateWindow and minWindowOps are the least length, in seconds, and the
// least number of operations of the windows a phase's operations are cut
// into (see cycleWindows): long enough to time, enough for a percentile.
const (
	rateWindow   = 0.5
	minWindowOps = 16
)

// timedResult is what one socket-to-socket run of one workload against the
// real discserve binary observed, tracing off.
type timedResult struct {
	// E2E holds the end-to-end metrics by BENCHMARK.json name.
	E2E map[string]float64 `json:"end_to_end"`
	// Layer holds the per-layer metrics this run can see from outside the
	// server: the harness's own (discload.*) and /metrics counter deltas.
	Layer map[string]float64 `json:"per_layer"`
	// Windows holds, for each window-median metric, the value of every
	// window, so the spread inside a phase can be read beside the median.
	Windows map[string][]float64 `json:"windows"`
	// Phases reports sent/ok/failed per phase.
	Phases map[string]counts `json:"phases"`
	// SetupRuns lists every set-up time measured (setup_s is their median).
	SetupRuns []float64 `json:"setup_runs_s"`
	// Invalid lists the reasons the run measured the generator, not the
	// server; empty for a valid run.
	Invalid []string `json:"invalid,omitempty"`
	// Failures lists what went wrong with the server's answers: the first
	// failed operation's message, counters that disagree with the work done.
	Failures []string `json:"failures,omitempty"`
	Cmdline  []string `json:"server_cmdline"`
	PoolHash string   `json:"pool_hash"`
	Shapes   int      `json:"distinct_shapes"`
}

func (t *timedResult) total() counts {
	var c counts
	for _, p := range t.Phases {
		c.add(p)
	}
	return c
}

// env is what every run of a workload shares: the binary under test, the
// run's parameters, and — made once by prepare — a scratch directory of its
// own inside buildDir, the model repository in it and the request pool.
type env struct {
	bin     string
	buildS  float64
	seed    uint64
	seconds float64
	conns   int
	// setups is how many times the run launches and warms the server.
	setups int

	scratch string
	repo    string
	texts   map[string]string // model → graph text, as stored in repo
	pool    []*request
}

// prepare makes the workload's scratch directory, repository and pool; the
// caller removes e.scratch.
func (e *env) prepare(root string, w spec) (err error) {
	if e.scratch, err = newScratch(root); err != nil {
		return err
	}
	e.repo = filepath.Join(e.scratch, "repo")
	if e.texts, err = writeRepo(e.repo, w.models); err != nil {
		return err
	}
	e.pool, err = buildPool(w, e.seed, e.texts)
	return err
}

// newScratch makes a fresh directory under buildDir for one run's model
// repository and cache; the caller removes it.
func newScratch(root string) (string, error) {
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir(root), "run-")
}

// warmUp sends every pool entry twice over one connection and returns when
// the last reply has arrived; replies are checked after the clock stops —
// the first pass decoded and compared with the reference, the second pass
// byte for byte against the first.
func warmUp(c *client, pool []*request) (last time.Time, cnt counts, err error) {
	var buf bytes.Buffer
	second := make([][]byte, len(pool))
	for pass := 0; pass < 2; pass++ {
		for i, r := range pool {
			status, done, err := c.post(r.path, r.body, &buf)
			cnt.Sent++
			if err != nil {
				cnt.Failed++
				return done, cnt, fmt.Errorf("warm-up %s: %w", r.path, err)
			}
			if status != 200 {
				cnt.Failed++
				return done, cnt, fmt.Errorf("warm-up %s: status %d: %.200s", r.path, status, buf.Bytes())
			}
			last = done
			reply := append([]byte(nil), buf.Bytes()...)
			if pass == 0 {
				r.reply = reply
			} else {
				second[i] = reply
			}
		}
	}
	for i, r := range pool {
		reply := r.reply
		r.reply = nil
		if err := checkReply(r, reply); err != nil {
			cnt.Failed, cnt.Mismatched = cnt.Failed+1, cnt.Mismatched+1
			return last, cnt, fmt.Errorf("warm-up %s b=%d s=%d: %w", r.model, r.batch, r.seq, err)
		}
		r.reply = reply
		if err := r.verify(second[i]); err != nil {
			cnt.Failed, cnt.Mismatched = cnt.Failed+1, cnt.Mismatched+1
			return last, cnt, fmt.Errorf("warm-up repeat %s b=%d s=%d: %w", r.model, r.batch, r.seq, err)
		}
	}
	cnt.OK = cnt.Sent - cnt.Failed
	return last, cnt, nil
}

// runTimed measures one inference workload end to end.
func runTimed(e env, w spec) (*timedResult, error) {
	if w.churn {
		return runChurnTimed(e, w)
	}
	repo, pool := e.repo, e.pool
	res := newTimedResult(e, w)

	var srv *server
	var cl *client
	var err error
	for k := 0; k < e.setups; k++ {
		if srv, err = startServer(e.bin, repo); err != nil {
			return nil, err
		}
		cl = newClient(srv.base, e.conns)
		last, cnt, werr := warmUp(cl, pool)
		ph := res.Phases["warmup"]
		ph.add(cnt)
		res.Phases["warmup"] = ph
		if werr != nil {
			// A warm-up failure is a failed operation; nothing after it
			// would measure a correct server.
			res.Failures = append(res.Failures, werr.Error())
			cl.close()
			srv.stop()
			return res, nil
		}
		res.SetupRuns = append(res.SetupRuns, last.Sub(srv.started).Seconds())
		if k < e.setups-1 {
			cl.close()
			srv.stop()
		}
	}
	defer srv.stop()
	defer cl.close()
	res.Cmdline = srv.cmdline
	res.E2E["setup_s"] = median(res.SetupRuns)

	before, err := scrape(cl.http, srv.base)
	if err != nil {
		return nil, err
	}
	openFor := time.Duration(e.seconds * openShare * float64(time.Second))
	closedFor := time.Duration(e.seconds*float64(time.Second)) - openFor
	open := openLoop(cl, srv, pool, poissonSchedule(e.seed, w.rate, openFor, len(pool)), w.rate, openFor)
	closed := closedLoop(cl, srv, pool, e.seed, closedFor)
	after, err := scrape(cl.http, srv.base)
	if err != nil {
		return nil, err
	}
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}

	var openErr, closedErr error
	res.Phases["open"], openErr = open.tally()
	res.Phases["closed"], closedErr = closed.tally()
	if err := cmp.Or(openErr, closedErr); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	res.E2E["server_rss_peak_mb"] = rss
	summarizeOpen(res, open, w.limitMs, len(pool))
	summarizeClosed(res, closed, len(pool))
	res.finish(e, after, after.delta(before))
	return res, nil
}

// finish fills the per-layer numbers every timed run shares: the harness's
// totals and the server's counter deltas around the measured phases.
func (t *timedResult) finish(e env, after, delta promSample) {
	total := t.total()
	t.Layer["discload.build_s"] = e.buildS
	t.Layer["discload.sent"] = float64(total.Sent)
	t.Layer["discload.ok"] = float64(total.OK)
	t.Layer["discload.failed"] = float64(total.Failed)
	t.Layer["discload.mismatched"] = float64(total.Mismatched)
	counterMetrics(t.Layer, after, delta)
	dropNaN(t.E2E)
	dropNaN(t.Layer)
}

// dropNaN removes what was not measured: a phase in which nothing succeeded
// has no latency to report, and the missing metrics are then the least of
// the run's problems. (JSON cannot carry a NaN either.)
func dropNaN(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

func distinctShapes(ps []point) int {
	seen := map[point]bool{}
	for _, p := range ps {
		seen[p] = true
	}
	return len(seen)
}

func newTimedResult(e env, w spec) *timedResult {
	return &timedResult{
		E2E: map[string]float64{}, Layer: map[string]float64{}, Phases: map[string]counts{},
		Windows:  map[string][]float64{},
		PoolHash: poolHash(e.pool), Shapes: distinctShapes(w.points()),
	}
}

// okPerWindow cuts the phase into n equal windows and counts the verified
// operations of each. An operation that straddles a window boundary counts
// in each window by the share of its duration spent there, so that a window
// holding two and a half model_churn rounds reads as 2.5, not as 2 or 3.
func okPerWindow(p *phaseResult, n int) []float64 {
	ok := make([]float64, n)
	width := p.seconds / float64(n)
	for i := range p.samples {
		s := &p.samples[i]
		if s.err != nil || s.latency <= 0 {
			continue
		}
		for w := windowOf(s.due, p.seconds, n); w < n; w++ {
			lo, hi := math.Max(s.due, float64(w)*width), math.Min(s.due+s.latency, float64(w+1)*width)
			if hi <= lo {
				break
			}
			ok[w] += (hi - lo) / s.latency
		}
	}
	return ok
}

// cycleWindows cuts a phase's n operations, which are in draw order, into
// windows of whole draw cycles (cycle operations: one pass over the pool,
// or one model_churn round), so that every window is the same work: the
// fewest cycles that hold at least rateWindow seconds of the phase and
// minWindowOps operations. It returns the operations per window and the
// number of whole windows; a phase too short for one is one window.
func cycleWindows(n int, seconds float64, cycle int) (ops, count int) {
	need := math.Max(rateWindow*float64(n)/seconds, minWindowOps)
	ops = cycle * max(1, int(math.Ceil(need/float64(cycle))))
	if ops >= n {
		return n, 1
	}
	return ops, n / ops
}

// report picks a metric's reported value from its windows. In an open loop
// the host is mostly idle and windows differ by chance, in both directions:
// the median window is reported, and a stall of the host that ruins some
// windows does not move it. In a closed loop the cores the server runs on
// are saturated and whatever else the host runs can only make a window
// worse, for seconds or for minutes at a time: the best window is reported —
// what the server does when it gets the machine. A server that got slower
// is slower in every window alike.
func (p *phaseResult) report(perWindow []float64, higherIsBetter bool) float64 {
	switch {
	case !p.closed:
		return median(perWindow)
	case higherIsBetter:
		return percentile(perWindow, 1)
	default:
		return percentile(perWindow, 0)
	}
}

// summarizeOpen turns a phase timed per operation — the open loop, or
// model_churn's rounds — into latency_p50_ms, latency_p75_ms and
// within_limit_ratio (over windows of whole draw cycles),
// server_cpu_ms_per_req (over five windows by time, which is when the CPU
// clocks were read), the harness's own validity numbers, and the run's
// validity verdict. CPU per request is taken here, at the workload's fixed
// arrival rate, and not from the closed loop: at a fixed rate every run
// does the same work in the same regime, and a busy host moves the number
// by a third of what it does when both cores are saturated.
func summarizeOpen(res *timedResult, p *phaseResult, limitMs float64, cycle int) {
	backlog := make([][]float64, windows)
	var all, lags []float64
	var reqBytes, respBytes []float64
	unsent := 0
	for i := range p.samples {
		s := &p.samples[i]
		if !s.sent {
			unsent++
			continue
		}
		lags = append(lags, s.lag*1e3)
		w := windowOf(s.due, p.seconds, windows)
		backlog[w] = append(backlog[w], s.backlog*1e3)
		if s.err != nil {
			continue
		}
		all = append(all, s.latency*1e3)
		reqBytes = append(reqBytes, float64(s.reqBytes))
		respBytes = append(respBytes, float64(s.respBytes))
	}
	ops, count := cycleWindows(len(p.samples), p.seconds, cycle)
	p50s, p75s, ratios := make([]float64, count), make([]float64, count), make([]float64, count)
	for w := range p50s {
		var lat []float64
		within := 0
		for _, s := range p.samples[w*ops : (w+1)*ops] {
			if !s.sent || s.err != nil {
				continue
			}
			lat = append(lat, s.latency*1e3)
			if s.latency*1e3 <= limitMs {
				within++
			}
		}
		p50s[w], p75s[w] = percentile(lat, 0.5), percentile(lat, 0.75)
		ratios[w] = float64(within) / float64(ops)
	}
	cpu := make([]float64, 0, windows)
	for w, ok := range okPerWindow(p, windows) {
		if ok > 0 {
			cpu = append(cpu, 1e3*(p.serverCPU[w+1]-p.serverCPU[w])/ok)
		}
	}
	res.E2E["latency_p50_ms"] = p.report(p50s, false)
	res.E2E["latency_p75_ms"] = p.report(p75s, false)
	res.E2E["within_limit_ratio"] = p.report(ratios, true)
	res.E2E["server_cpu_ms_per_req"] = p.report(cpu, false)
	res.Windows["latency_p50_ms"], res.Windows["latency_p75_ms"], res.Windows["within_limit_ratio"] = p50s, p75s, ratios
	res.Windows["server_cpu_ms_per_req"] = cpu
	res.Layer["discload.window_spread_pct"] = windowSpread(p50s)
	res.Layer["discload.send_lag_p50_ms"] = median(lags)
	res.Layer["discload.send_lag_p99_ms"] = percentile(lags, 0.99)
	res.Layer["discload.latency_p90_ms"] = percentile(all, 0.9)
	res.Layer["discload.latency_p99_ms"] = percentile(all, 0.99)
	res.Layer["discload.latency_max_ms"] = percentile(all, 1)
	res.Layer["discload.req_bytes_mean"] = mean(reqBytes)
	res.Layer["discload.resp_bytes_mean"] = mean(respBytes)

	// The generator's self-check. Lateness is judged at the median: on a
	// shared two-core host a p99 is set by whoever else got the CPU.
	if lag, p50 := res.Layer["discload.send_lag_p50_ms"], res.E2E["latency_p50_ms"]; lag > p50/10 {
		res.Invalid = append(res.Invalid,
			fmt.Sprintf("median send lag %.3f ms exceeds a tenth of latency_p50_ms %.3f ms", lag, p50))
	}
	if unsent > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d requests still unsent after the open-loop phase", unsent))
	} else if prev, last := median(backlog[windows-2]), median(backlog[windows-1]); prev > limitMs && last > prev {
		// Two fifths of the phase in a row, the later one worse: the server
		// is not keeping up with the rate. One bad stretch is a stall of the
		// host, which the reported window already shrugs off.
		res.Invalid = append(res.Invalid,
			fmt.Sprintf("open-loop backlog still growing at phase end: requests waited %.1f ms, then %.1f ms, for a connection (limit %.0f ms)", prev, last, limitMs))
	}
}

// summarizeClosed turns the closed-loop phase into throughput_rps and the
// harness's CPU share. A window (see cycleWindows) runs from the start of
// its first operation to the start of the next window's.
func summarizeClosed(res *timedResult, p *phaseResult, cycle int) {
	ops, count := cycleWindows(len(p.samples), p.seconds, cycle)
	var rps []float64
	for w := 0; w < count && (w+1)*ops < len(p.samples); w++ {
		rps = append(rps, float64(ops)/(p.samples[(w+1)*ops].due-p.samples[w*ops].due))
	}
	if len(rps) == 0 { // a phase too short for a window and its successor's start
		rps = []float64{float64(len(p.samples)) / p.seconds}
	}
	res.E2E["throughput_rps"] = p.report(rps, true)
	res.Windows["throughput_rps"] = rps
	res.Layer["discload.window_spread_pct"] = math.Max(res.Layer["discload.window_spread_pct"], windowSpread(rps))
	srvCPU := p.serverCPU[windows] - p.serverCPU[0]
	cliCPU := p.clientCPU[windows] - p.clientCPU[0]
	res.Layer["discload.client_cpu_share"] = cliCPU / (cliCPU + srvCPU)
}

// counterMetrics derives the per-layer counts from /metrics of the real
// server: d is the delta around the measured phases, after the closing
// scrape (for gauges).
func counterMetrics(out map[string]float64, after, d promSample) {
	reqs := d.sum("godisc_requests_total")
	perReq := func(v float64) float64 {
		if reqs == 0 {
			return 0
		}
		return v / reqs
	}
	all := d.sum("godisc_http_requests_total")
	ok := d.sum("godisc_http_requests_total", `code="200"`)
	out["fleet.http_2xx"] = ok
	out["fleet.http_non2xx"] = all - ok
	out["fleet.evictions"] = d.sum("godisc_fleet_evictions_total")
	out["serve.requests"] = reqs
	out["serve.rejected"] = d.sum("godisc_admission_rejects_total")
	out["serve.fallback_runs"] = d.sum("godisc_fallback_total")
	out["serve.retries"] = d.sum("godisc_retries_total")
	out["serve.compilations"] = d.sum("godisc_compilations_total")
	hits := d.sum("godisc_cache_lookups_total", `result="hit"`)
	if lookups := d.sum("godisc_cache_lookups_total"); lookups > 0 {
		out["serve.engine_hit_ratio"] = hits / lookups
	}
	out["exec.tasks"] = perReq(d.sum("godisc_exec_tasks_total"))
	out["exec.partitions"] = perReq(d.sum("godisc_exec_partitions_total"))
	reuses, allocs := d.sum("godisc_pool_reuses_total"), d.sum("godisc_pool_allocs_total")
	if reuses+allocs > 0 {
		out["ral.pool_reuse_ratio"] = reuses / (reuses + allocs)
	}
	out["ral.pool_peak_elems"] = after.sum("godisc_pool_peak_elems")
	out["enginecache.hits"] = d.sum("godisc_enginecache_hits_total")
	out["enginecache.misses"] = d.sum("godisc_enginecache_misses_total")
	out["enginecache.persists"] = d.sum("godisc_enginecache_persists_total")
}
