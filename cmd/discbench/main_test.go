package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"godisc/internal/bench"
)

func TestRunExperimentSubsetWithJSON(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Requests = 10
	cfg.Models = []string{"mlp"}
	jsonOut := filepath.Join(t.TempDir(), "r.json")
	if err := run("e1", cfg, jsonOut, "", "", 8, 32); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(jsonOut); err != nil || st.Size() == 0 {
		t.Fatal("json artifact missing")
	}
}

func TestRunReplayTrace(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Requests = 10
	cfg.Models = []string{"mlp"}
	tracePath := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(tracePath, []byte("# t\n1,1\n2,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("replay", cfg, "", tracePath, "", 8, 32); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("e99", bench.DefaultConfig(), "", "", "", 8, 32); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestRunTraceOut runs one experiment with -trace-out and checks the
// Chrome trace artifact exists and is non-trivial.
func TestRunTraceOut(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.Requests = 8
	cfg.Models = []string{"mlp"}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	if err := run("e1", cfg, "", "", traceOut, 8, 32); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("trace-out artifact is not valid JSON")
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatal(err)
	}
	execs := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Name == "exec" {
			execs++
		}
	}
	if execs != cfg.Requests {
		t.Errorf("exec spans = %d, want %d (one per request)", execs, cfg.Requests)
	}
}
