package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// windows is how many equal stretches of time a measured phase is cut into
// for what is read on a timer: the CPU clocks, and the open-loop backlog.
const windows = 5

// client sends pre-encoded requests to one server over at most conns
// keep-alive connections.
type client struct {
	http  *http.Client
	base  string
	conns int
}

func newClient(base string, conns int) *client {
	return &client{
		base:  base,
		conns: conns,
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body to path and reads the whole reply into buf; the returned
// time is taken after the last response byte.
func (c *client) post(path string, body []byte, buf *bytes.Buffer) (status int, done time.Time, err error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Now(), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	done = time.Now()
	resp.Body.Close()
	return resp.StatusCode, done, err
}

// infer sends one pool request and verifies the reply. The clock stops
// before verification; verification cost is the harness's, not the server's.
func (c *client) infer(r *request, buf *bytes.Buffer) (done time.Time, err error) {
	status, done, err := c.post(r.path, r.body, buf)
	if err != nil {
		return done, err
	}
	if status != http.StatusOK {
		return done, fmt.Errorf("%s: status %d: %.200s", r.path, status, buf.Bytes())
	}
	if err := r.verify(buf.Bytes()); err != nil {
		return done, mismatchError{fmt.Errorf("%s b=%d s=%d: %w", r.model, r.batch, r.seq, err)}
	}
	return done, nil
}

// mismatchError marks a reply that arrived but disagreed with the reference.
type mismatchError struct{ error }

// sample is one operation of a measured phase. Times are seconds from the
// phase start.
type sample struct {
	seq       int     // closed loop: position in the draw order, until the clients' samples are merged
	due       float64 // when it was due (open loop) or started (closed loop)
	latency   float64 // due → last response byte
	lag       float64 // how late the generator itself sent it (open loop)
	backlog   float64 // how long it waited past due for a free connection
	reqBytes  int
	respBytes int
	sent      bool
	err       error
}

// phaseResult is everything one measured phase observed.
type phaseResult struct {
	seconds float64
	// closed marks a closed-loop phase, which reports its best window where
	// an open-loop phase reports its median window (see report).
	closed  bool
	samples []sample // in draw order
	// serverCPU and clientCPU are cumulative process CPU seconds sampled at
	// the phase start and at every window boundary (windows+1 readings).
	serverCPU, clientCPU []float64
}

// counts tallies a phase the way every report line does.
type counts struct {
	Sent       int `json:"sent"`
	OK         int `json:"ok"`
	Failed     int `json:"failed"`
	Mismatched int `json:"mismatched"`
}

func (c *counts) add(o counts) {
	c.Sent += o.Sent
	c.OK += o.OK
	c.Failed += o.Failed
	c.Mismatched += o.Mismatched
}

// tally counts a phase's samples. A request that was due but never sent is
// attempted and failed: the open loop does not forgive a backlog.
func (p *phaseResult) tally() (c counts, firstErr error) {
	for i := range p.samples {
		s := &p.samples[i]
		c.Sent++
		switch s.err.(type) {
		case nil:
			c.OK++
			continue
		case mismatchError:
			c.Mismatched++
		}
		c.Failed++
		if firstErr == nil {
			firstErr = s.err
		}
	}
	return c, firstErr
}

// schedule is an open-loop phase decided before it starts: when each
// request is due and which pool entry it sends.
type schedule struct {
	due  []time.Duration
	pick []int
}

// poolCycle yields pool indices in seeded permutation cycles, so that any
// stretch of a phase sends nearly the same shape mix as any other.
type poolCycle struct {
	rng  *rand.Rand
	perm []int
	at   int
}

func newPoolCycle(rng *rand.Rand, n int) *poolCycle {
	return &poolCycle{rng: rng, perm: rng.Perm(n), at: 0}
}

func (c *poolCycle) next() int {
	if c.at == len(c.perm) {
		c.rng.Shuffle(len(c.perm), func(i, j int) { c.perm[i], c.perm[j] = c.perm[j], c.perm[i] })
		c.at = 0
	}
	c.at++
	return c.perm[c.at-1]
}

// poissonSchedule draws arrivals at the given rate for the whole phase from
// the seed: exponential gaps, pool entries in permutation cycles.
func poissonSchedule(seed uint64, rate float64, phase time.Duration, n int) schedule {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x6f70656e)) // "open"
	cyc := newPoolCycle(rng, n)
	var s schedule
	for t := rng.ExpFloat64() / rate; t < phase.Seconds(); t += rng.ExpFloat64() / rate {
		s.due = append(s.due, time.Duration(t*float64(time.Second)))
		s.pick = append(s.pick, cyc.next())
	}
	return s
}

// waitUntil sleeps until spin before t and then spins: time.Sleep alone
// overshoots by a scheduler quantum — more when the server has both cores
// busy — which on dlrm_tiny is a third of a whole request.
func waitUntil(t time.Time, spin time.Duration) {
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// spinFor picks the spin window of an open-loop phase: a fifth of the mean
// gap between arrivals, so that spinning costs the generator at most a
// fifth of one core at any rate, within [150 µs, 1 ms].
func spinFor(rate float64) time.Duration {
	spin := time.Duration(float64(time.Second) / rate / 5)
	return min(max(spin, 150*time.Microsecond), time.Millisecond)
}

// cpuSampler reads both processes' CPU clocks at the phase start and at
// each window boundary.
func cpuSampler(srv *server, start time.Time, phase time.Duration, res *phaseResult) {
	for w := 0; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(phase * time.Duration(w) / windows)))
		s, _ := srv.cpuSeconds()
		c, _ := procCPUSeconds(os.Getpid())
		res.serverCPU = append(res.serverCPU, s)
		res.clientCPU = append(res.clientCPU, c)
	}
}

const openLoopGrace = 2 * time.Second

// openLoop sends the schedule: each request goes out at its due time
// whether or not earlier ones have been answered, over at most c.conns
// connections, and is timed from the instant it was due. A backlog left at
// the end of the phase is still sent — a stall of the host in the last
// moments must not fail the run — but only for openLoopGrace: requests
// unsent by then are recorded as failed, the server is not keeping up.
func openLoop(c *client, srv *server, pool []*request, sched schedule, rate float64, phase time.Duration) *phaseResult {
	spin := spinFor(rate)
	res := &phaseResult{seconds: phase.Seconds(), samples: make([]sample, len(sched.due))}
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched.due) {
					return
				}
				s := &res.samples[i]
				due := start.Add(sched.due[i])
				s.due = sched.due[i].Seconds()
				free := time.Now()
				if free.After(start.Add(phase + openLoopGrace)) {
					s.err = fmt.Errorf("open loop: request due at %.3fs never sent (backlog)", s.due)
					continue
				}
				waitUntil(due, spin)
				sendAt := time.Now()
				if free.After(due) {
					s.backlog = free.Sub(due).Seconds()
					s.lag = sendAt.Sub(free).Seconds()
				} else {
					s.lag = sendAt.Sub(due).Seconds()
				}
				r := pool[sched.pick[i]]
				done, err := c.infer(r, &buf)
				s.sent, s.err = true, err
				s.latency = done.Sub(due).Seconds()
				s.reqBytes, s.respBytes = len(r.body), buf.Len()
			}
		}()
	}
	cpuSampler(srv, start, phase, res)
	wg.Wait()
	return res
}

// closedLoop runs c.conns clients back to back for the phase: each sends
// its next request when the previous reply has been read.
func closedLoop(c *client, srv *server, pool []*request, seed uint64, phase time.Duration) *phaseResult {
	res := &phaseResult{seconds: phase.Seconds(), closed: true}
	start := time.Now().Add(10 * time.Millisecond)
	perClient := make([][]sample, c.conns)
	// The clients draw from one cycle, so that a window sees whole cycles of
	// the pool however the clients interleave.
	var mu sync.Mutex
	drawn := 0
	cyc := newPoolCycle(rand.New(rand.NewSource(int64(seed)^0x636c6f73)), len(pool)) // "clos"
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			waitUntil(start, 0)
			for {
				begin := time.Now()
				if begin.Sub(start) >= phase {
					return
				}
				mu.Lock()
				seq, r := drawn, pool[cyc.next()]
				drawn++
				mu.Unlock()
				done, err := c.infer(r, &buf)
				perClient[w] = append(perClient[w], sample{
					seq: seq, due: begin.Sub(start).Seconds(), latency: done.Sub(begin).Seconds(),
					reqBytes: len(r.body), respBytes: buf.Len(), sent: true, err: err,
				})
			}
		}(w)
	}
	cpuSampler(srv, start, phase, res)
	wg.Wait()
	res.samples = make([]sample, drawn)
	for _, ss := range perClient {
		for _, s := range ss {
			res.samples[s.seq] = s
		}
	}
	return res
}
