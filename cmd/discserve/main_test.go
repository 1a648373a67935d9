package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// base returns the default option set used by the tests; each test
// overrides what it exercises.
func base() options {
	return options{
		Models: "mlp", Dist: "zipf", Device: "A10",
		Requests: 30, Workers: 4, Queue: 16,
		MaxBatch: 4, MaxSeq: 32, Seed: 7,
		FaultSeed: 1, DrainTimeout: 5 * time.Second,
	}
}

func TestServeZipfTraceSingleModel(t *testing.T) {
	o := base()
	o.Warm = true
	if err := run(o, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

func TestServeMixedModelsUniform(t *testing.T) {
	o := base()
	o.Models, o.Dist, o.Device, o.Requests = "mlp,textcnn", "uniform", "T4", 20
	if err := run(o, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

func TestServeWithDeadline(t *testing.T) {
	// A generous deadline: requests complete normally (the simulated
	// device is fast); this exercises the context plumbing end to end.
	o := base()
	o.Dist, o.Requests, o.Workers, o.Queue, o.MaxSeq = "churn", 10, 2, 8, 16
	o.Deadline = 5 * time.Second
	if err := run(o, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

func TestServeUnknownInputs(t *testing.T) {
	o := base()
	o.Models = "nosuchmodel"
	if err := run(o, devNull(t)); err == nil {
		t.Fatal("unknown model must error")
	}
	o = base()
	o.Dist = "nosuchdist"
	if err := run(o, devNull(t)); err == nil {
		t.Fatal("unknown distribution must error")
	}
	o = base()
	o.Faults = "compile:badmode:0.5"
	if err := run(o, devNull(t)); err == nil {
		t.Fatal("bad fault spec must error")
	}
}

// TestServeWithFaults replays under an injected failure storm: the
// resilience machinery (fallback, retry, breaker) must absorb every
// fault — run returns nil because no request ultimately fails.
func TestServeWithFaults(t *testing.T) {
	o := base()
	o.Requests = 60
	o.Faults = "kernel-launch:panic:0.3,alloc:transient:0.25"
	o.FaultSeed = 7
	if err := run(o, devNull(t)); err != nil {
		t.Fatal(err)
	}
}

// TestServeObservabilityEndToEnd replays a trace with the observability
// stack armed and, while the listener is still up, scrapes /metrics and
// /debug/trace — the full path from instrumented request handling to
// Prometheus text exposition and Chrome trace export.
func TestServeObservabilityEndToEnd(t *testing.T) {
	o := base()
	o.Requests = 40
	o.Warm = false // force at least one cache miss + compile span
	o.Faults = "kernel-launch:panic:0.3,alloc:transient:0.25"
	o.FaultSeed = 7
	o.HTTP = "127.0.0.1:0"
	o.TraceOut = filepath.Join(t.TempDir(), "trace.json")

	scraped := false
	o.ready = func(addr string) {
		scraped = true

		// /metrics must be valid Prometheus text exposition covering the
		// latency histograms, cache hit/miss, fallback and breaker series.
		body, ctype := httpGet(t, "http://"+addr+"/metrics")
		if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
			t.Errorf("metrics content type = %q, want text exposition 0.0.4", ctype)
		}
		checkPromText(t, body)
		for _, series := range []string{
			"godisc_requests_total",
			`godisc_requests_outcome_total{outcome="completed"}`,
			`godisc_cache_lookups_total{result="hit"}`,
			`godisc_cache_lookups_total{result="miss"}`,
			"godisc_latency_sim_ns_bucket{",
			"godisc_latency_sim_ns_sum",
			"godisc_latency_sim_ns_count",
			"godisc_request_sim_ns_bucket{",
			"godisc_fallback_total",
			"godisc_retries_total",
			"godisc_kernel_panics_total",
			`godisc_breaker_transitions_total{to="open"}`,
			"godisc_breaker_short_circuits_total",
			"godisc_queue_depth",
			"godisc_inflight",
			"godisc_exec_tasks_total",
			`godisc_faults_total{mode="panic",site="kernel-launch"}`,
			"godisc_pool_in_use_elems",
			"godisc_go_heap_live_bytes",
			"godisc_go_heap_objects",
			"godisc_go_goroutines",
			"godisc_go_gc_cycles_total",
			"godisc_go_gc_cpu_fraction",
		} {
			if !strings.Contains(body, series) {
				t.Errorf("/metrics missing series %q", series)
			}
		}
		// Engines run sequentially: no worker pool, no partitions.
		for _, series := range []string{"godisc_worker_", "godisc_exec_partitions_total"} {
			if strings.Contains(body, series) {
				t.Errorf("/metrics still exports %q", series)
			}
		}
		// The per-signature latency histogram must carry model and
		// signature labels — latency keyed by cache key.
		if !strings.Contains(body, `model="mlp"`) || !strings.Contains(body, `signature="`) {
			t.Error("/metrics missing per-(model, signature) latency series")
		}

		// /debug/trace must return the JSON span tree with infer roots.
		body, ctype = httpGet(t, "http://"+addr+"/debug/trace")
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("trace content type = %q, want application/json", ctype)
		}
		var traces struct {
			Traces []struct {
				Name     string          `json:"name"`
				DurNs    int64           `json:"dur_ns"`
				Children json.RawMessage `json:"children"`
			} `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &traces); err != nil {
			t.Fatalf("/debug/trace is not JSON: %v", err)
		}
		if len(traces.Traces) == 0 {
			t.Fatal("/debug/trace returned no traces")
		}
		for _, tr := range traces.Traces {
			if tr.Name != "infer" {
				t.Errorf("root span %q, want infer", tr.Name)
			}
		}

		// The chrome format endpoint must return trace_event JSON too.
		body, _ = httpGet(t, "http://"+addr+"/debug/trace?format=chrome")
		var chrome struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &chrome); err != nil {
			t.Fatalf("chrome trace is not JSON: %v", err)
		}
		if len(chrome.TraceEvents) == 0 {
			t.Fatal("chrome trace has no events")
		}
	}

	if err := run(o, devNull(t)); err != nil {
		t.Fatal(err)
	}
	if !scraped {
		t.Fatal("ready callback never ran: observability listener missing")
	}

	// -trace-out must have produced a parseable Chrome trace file.
	raw, err := os.ReadFile(o.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace-out file is not chrome trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace-out file has no events")
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph=%q, want X (complete)", ev.Name, ev.Ph)
		}
	}
}

// httpGet fetches a URL and returns (body, content-type), failing the
// test on transport or status errors.
func httpGet(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// checkPromText structurally validates Prometheus text exposition: every
// non-comment line is `name{labels} value` with a parseable float, and
// every series name was announced by a preceding # TYPE line.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("TYPE line %q has invalid type", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		// Split the sample into name[{labels}] and value.
		rest := line
		name := rest
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.LastIndexByte(rest, '}')
			if j < i {
				t.Errorf("unbalanced labels in %q", line)
				continue
			}
			rest = strings.TrimSpace(rest[j+1:])
		} else {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Errorf("malformed sample %q", line)
				continue
			}
			name, rest = f[0], f[1]
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &v); err != nil {
			t.Errorf("sample %q: bad value: %v", line, err)
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && typed[b] {
				base = b
				break
			}
		}
		if !typed[base] {
			t.Errorf("series %q has no # TYPE line", name)
		}
	}
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
