package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must give NaN, not a number that looks measured")
	}
}

func TestReport(t *testing.T) {
	ws := []float64{10, 11, 250, 9, 10}
	// Open loop: one stalled window out of five must not move the value.
	open := &phaseResult{}
	if v := open.report(ws, false); v != 10 {
		t.Errorf("open loop: reported %v, want the median window 10", v)
	}
	// Closed loop: the best window, whichever direction is better.
	closed := &phaseResult{closed: true}
	if lo, hi := closed.report(ws, false), closed.report(ws, true); lo != 9 || hi != 250 {
		t.Errorf("closed loop: reported %v (lower is better) and %v (higher is better), want 9 and 250", lo, hi)
	}
	if want := 100 * (250.0 - 9) / 10; math.Abs(windowSpread(ws)-want) > 1e-9 {
		t.Errorf("spread = %v%%, want %v%%", windowSpread(ws), want)
	}
	if spread := windowSpread([]float64{0, 0, 0}); spread != 0 {
		t.Errorf("all-zero windows: spread %v", spread)
	}
}

func TestWindowOf(t *testing.T) {
	for _, tc := range []struct {
		offset float64
		want   int
	}{{-0.1, 0}, {0, 0}, {1.99, 0}, {2, 1}, {9.99, 4}, {10, 4}, {12, 4}} {
		if got := windowOf(tc.offset, 10, 5); got != tc.want {
			t.Errorf("windowOf(%v) = %d, want %d", tc.offset, got, tc.want)
		}
	}
}

// An operation that straddles a window boundary counts in each window by
// the share of its duration it spent there.
func TestWindowsSplitStraddlers(t *testing.T) {
	p := &phaseResult{seconds: 10}
	for w := 0; w <= windows; w++ {
		p.serverCPU = append(p.serverCPU, float64(w))
	}
	// Back-to-back operations of 0.8 s: 12.5 of them fit in the phase, 2.5
	// in each 2 s window.
	for start := 0.0; start < 10; start += 0.8 {
		p.samples = append(p.samples, sample{due: start, latency: 0.8, sent: true})
	}
	for w, ok := range okPerWindow(p, windows) {
		if math.Abs(ok-2.5) > 1e-9 {
			t.Errorf("window %d: %v operations, want 2.5", w, ok)
		}
	}
	res := &timedResult{E2E: map[string]float64{}, Layer: map[string]float64{}, Windows: map[string][]float64{}}
	summarizeOpen(res, p, 1000, 1)
	if got := res.E2E["server_cpu_ms_per_req"]; math.Abs(got-400) > 1e-6 {
		t.Errorf("server_cpu_ms_per_req = %v, want 400 (1 CPU-second per window over 2.5 operations)", got)
	}
}

// throughput_rps is the best window of whole draw cycles: windows a busy
// host slowed down do not move it, a server slower in every window does.
func TestThroughputIsBestWindow(t *testing.T) {
	const cycle = 8
	run := func(latency func(start float64) float64) (float64, []float64) {
		p := &phaseResult{seconds: 10, closed: true, serverCPU: make([]float64, windows+1), clientCPU: make([]float64, windows+1)}
		for start := 0.0; start < 10; {
			l := latency(start)
			p.samples = append(p.samples, sample{due: start, latency: l, sent: true})
			start += l
		}
		res := &timedResult{E2E: map[string]float64{}, Layer: map[string]float64{}, Windows: map[string][]float64{}}
		summarizeClosed(res, p, cycle)
		return res.E2E["throughput_rps"], res.Windows["throughput_rps"]
	}
	quiet, ws := run(func(float64) float64 { return 0.01 })
	if math.Abs(quiet-100) > 1e-6 {
		t.Errorf("steady 10 ms operations: throughput %v, want 100", quiet)
	}
	// 1000 operations, 100 per second: a window of at least 0.5 s in whole
	// cycles of 8 is 56 operations, and 17 of them are complete.
	if ops, count := cycleWindows(1000, 10, cycle); ops != 56 || count != 17 || len(ws) != 17 {
		t.Errorf("windows of %d operations, %d of them, %d reported; want 56, 17, 17", ops, count, len(ws))
	}
	// Few and slow operations: a window holds minWindowOps of them.
	if ops, count := cycleWindows(170, 28, 1); ops != minWindowOps || count != 170/minWindowOps {
		t.Errorf("170 rounds in 28 s: windows of %d rounds, %d of them", ops, count)
	}
	// The host takes half the machine away for 6 of the 10 seconds.
	if busy, _ := run(func(start float64) float64 {
		if start >= 2 && start < 8 {
			return 0.02
		}
		return 0.01
	}); math.Abs(busy-quiet) > 1e-6 {
		t.Errorf("a host busy for 6 s of 10 moved throughput from %v to %v", quiet, busy)
	}
	if slow, _ := run(func(float64) float64 { return 0.0125 }); math.Abs(slow-80) > 1e-6 {
		t.Errorf("a server 25%% slower throughout: throughput %v, want 80", slow)
	}
	// A phase too short for one window reports the phase's own rate.
	p := &phaseResult{seconds: 0.1, closed: true, serverCPU: make([]float64, windows+1), clientCPU: make([]float64, windows+1)}
	for i := 0; i < 5; i++ {
		p.samples = append(p.samples, sample{due: 0.02 * float64(i), latency: 0.02, sent: true})
	}
	res := &timedResult{E2E: map[string]float64{}, Layer: map[string]float64{}, Windows: map[string][]float64{}}
	summarizeClosed(res, p, cycle)
	if got := res.E2E["throughput_rps"]; math.Abs(got-50) > 1e-6 {
		t.Errorf("short phase: throughput %v, want 50", got)
	}
}
