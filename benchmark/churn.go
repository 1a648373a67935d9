package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// churner drives model_churn: one closed-loop client whose operation is a
// round over every model of the repository. Per model the round does a cold
// load (the harness empties the engine cache's *.eng files first, so the
// server parses, optimizes, fuses, generates code and persists), a verified
// infer, an unload, a warm load (the engine comes back from the cache:
// enginecache.Load + exec.DecodeImage), a verified infer and an unload.
type churner struct {
	cl                  *client
	cacheDir            string
	pool                []*request // one request per model
	buf                 bytes.Buffer
	ops                 counts // individual HTTP operations
	reqBytes, respBytes int    // of the current round's infers
	cold                int    // cold loads issued
	warm                int    // warm loads issued
	firstErr            error
}

func (c *churner) fail(err error, mismatch bool) {
	c.ops.Failed++
	if mismatch {
		c.ops.Mismatched++
	}
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// call posts one lifecycle operation and reports whether it succeeded.
func (c *churner) call(path string) bool {
	c.ops.Sent++
	status, _, err := c.cl.post(path, nil, &c.buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, c.buf.Bytes())
	}
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", path, err), false)
		return false
	}
	c.ops.OK++
	return true
}

func (c *churner) infer(r *request) bool {
	c.ops.Sent++
	if _, err := c.cl.infer(r, &c.buf); err != nil {
		_, mismatch := err.(mismatchError)
		c.fail(err, mismatch)
		return false
	}
	if r.reply == nil {
		r.reply = append([]byte(nil), c.buf.Bytes()...)
	}
	c.reqBytes, c.respBytes = c.reqBytes+len(r.body), c.respBytes+c.buf.Len()
	c.ops.OK++
	return true
}

// removeEngines empties an engine-cache directory of its entries, so that
// the next load of any model is cold.
func removeEngines(cacheDir string) error {
	files, err := filepath.Glob(filepath.Join(cacheDir, "*.eng"))
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// round runs one round in the given model order; false means an operation
// of it failed.
func (c *churner) round(order []int) bool {
	ok := true
	c.reqBytes, c.respBytes = 0, 0
	for _, i := range order {
		r := c.pool[i]
		repo := "/v2/repository/models/" + r.model
		if err := removeEngines(c.cacheDir); err != nil {
			c.fail(err, false)
			return false
		}
		c.cold++
		ok = c.call(repo+"/load") && c.infer(r) && c.call(repo+"/unload") && ok
		c.warm++
		ok = c.call(repo+"/load") && c.infer(r) && c.call(repo+"/unload") && ok
	}
	return ok
}

// rssRounds is the round after which model_churn reads the server's peak
// memory. The server keeps something of every load and unload, so its peak
// grows with the rounds done; read at the end of the phase it would follow
// the host's speed (a faster host does more rounds), read after a fixed
// number of rounds it follows the server.
const rssRounds = 64

// runChurnTimed measures model_churn end to end. Latency is the round
// time, throughput is rounds per second, CPU is per round.
func runChurnTimed(e env, w spec) (*timedResult, error) {
	repo, pool := e.repo, e.pool
	res := newTimedResult(e, w)
	rng := rand.New(rand.NewSource(int64(e.seed) ^ 0x63687572)) // "chur"

	// Set-up: the server loads (compiles) the whole repository before it is
	// ready; the harness then unloads it and runs one verified round.
	var srv *server
	var ch *churner
	var err error
	for k := 0; k < e.setups; k++ {
		cacheDir := filepath.Join(e.scratch, fmt.Sprintf("cache-%d", k))
		if srv, err = startServer(e.bin, repo, "-cache-dir", cacheDir); err != nil {
			return nil, err
		}
		ch = &churner{cl: newClient(srv.base, 1), cacheDir: cacheDir, pool: pool}
		warm := true
		for _, r := range pool {
			r.reply = nil // warm-up replies are checked against the reference in full
			warm = ch.call("/v2/repository/models/"+r.model+"/unload") && warm
		}
		warm = warm && ch.round(rng.Perm(len(pool)))
		done := time.Now()
		ph := res.Phases["warmup"]
		ph.add(ch.ops)
		res.Phases["warmup"] = ph
		if !warm {
			res.Failures = append(res.Failures, ch.firstErr.Error())
			ch.cl.close()
			srv.stop()
			return res, nil
		}
		res.SetupRuns = append(res.SetupRuns, done.Sub(srv.started).Seconds())
		if k < e.setups-1 {
			ch.cl.close()
			srv.stop()
		}
	}
	defer srv.stop()
	defer ch.cl.close()
	res.Cmdline = srv.cmdline
	res.E2E["setup_s"] = median(res.SetupRuns)
	ch.ops, ch.cold, ch.warm = counts{}, 0, 0

	before, err := scrape(ch.cl.http, srv.base)
	if err != nil {
		return nil, err
	}
	phase := time.Duration(e.seconds * float64(time.Second))
	p := &phaseResult{seconds: phase.Seconds(), closed: true}
	start := time.Now().Add(10 * time.Millisecond)
	loopDone := make(chan struct{})
	var rss float64
	var rssErr error
	go func() {
		defer close(loopDone)
		waitUntil(start, 0)
		for {
			begin := time.Now()
			if begin.Sub(start) >= phase {
				return
			}
			s := sample{due: begin.Sub(start).Seconds(), sent: true}
			if !ch.round(rng.Perm(len(pool))) {
				s.err = ch.firstErr
			}
			s.latency = time.Since(begin).Seconds()
			s.reqBytes, s.respBytes = ch.reqBytes, ch.respBytes
			p.samples = append(p.samples, s)
			if len(p.samples) == rssRounds {
				rss, rssErr = srv.rssPeakMB()
			}
		}
	}()
	cpuSampler(srv, start, phase, p)
	<-loopDone
	after, err := scrape(ch.cl.http, srv.base)
	if err != nil {
		return nil, err
	}
	if len(p.samples) < rssRounds { // a run shorter than the recorded one
		rss, rssErr = srv.rssPeakMB()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	res.E2E["server_rss_peak_mb"] = rss
	res.Phases["rounds"] = ch.ops
	if ch.firstErr != nil {
		res.Failures = append(res.Failures, ch.firstErr.Error())
	}

	// Rounds are timed from their own start, so the "open-loop" summary
	// applies unchanged: windows by start time, no lag, no backlog.
	summarizeOpen(res, p, w.limitMs, 1)
	summarizeClosed(res, p, 1)
	d := after.delta(before)
	res.finish(e, after, d)

	// The cache must have been used exactly as the round prescribes: one
	// compilation per cold load, one engine-cache hit per warm load.
	if got := d.sum("godisc_compilations_total"); got != float64(ch.cold) {
		res.Failures = append(res.Failures, fmt.Sprintf("%d cold loads but godisc_compilations_total rose by %v", ch.cold, got))
	}
	if got := d.sum("godisc_enginecache_hits_total"); got != float64(ch.warm) {
		res.Failures = append(res.Failures, fmt.Sprintf("%d warm loads but godisc_enginecache_hits_total rose by %v", ch.warm, got))
	}
	return res, nil
}
