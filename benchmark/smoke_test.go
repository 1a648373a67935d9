package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestSmoke keeps the benchmark alive in the tier-1 suite: all four
// workloads against the real binary with phases of about a second, then the
// traced run, asserting that every metric BENCHMARK.json names comes out
// with its unit and that no operation fails. It asserts nothing about
// speed, and the generator's self-check (Invalid) is only logged: the test
// suite shares its cores with other packages' tests.
func TestSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(ct.Workloads), len(workloads))
	}
	bin, buildS, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if ct.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, ct.Workloads[i].Name, w.name)
		}
		e := env{bin: bin, buildS: buildS, seed: 11, seconds: 1.5, conns: runtime.NumCPU(), setups: 1}
		r, err := runWorkload(root, e, w, -1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(r.Timed.Failures) > 0 {
			t.Fatalf("%s: %v", w.name, r.Timed.Failures)
		}
		if r.Traced == nil || r.Traced.FirstError != "" || r.Traced.Requests == 0 {
			t.Fatalf("%s: traced run: %+v", w.name, r.Traced)
		}
		if len(r.Timed.Invalid) > 0 {
			t.Logf("%s: generator self-check (not asserted here): %v", w.name, r.Timed.Invalid)
		}
		attempted, failed := r.counts()
		if attempted == 0 || failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, attempted, failed)
		}
		for name, c := range r.Timed.Phases {
			if c.Sent == 0 || c.OK != c.Sent {
				t.Errorf("%s phase %s: %+v", w.name, name, c)
			}
		}

		// The driver's contract, both kinds of line.
		r.Timed.Invalid = nil
		for trace, defs := range [][]metricDef{ct.EndToEnd, ct.PerLayer} {
			line, err := contractLine(ct, r, trace)
			if err != nil {
				t.Errorf("%s --trace %d: %v", w.name, trace, err)
				continue
			}
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s --trace %d: %v", w.name, trace, err)
			}
			if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
				t.Errorf("%s --trace %d: line %s", w.name, trace, line)
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s --trace %d: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || d.Unit == "" {
					t.Errorf("%s --trace %d: metric %s missing or without its unit %q", w.name, trace, d.Name, d.Unit)
				}
			}
			if trace == 0 {
				for _, d := range defs {
					if m := got.Metrics[d.Name]; m.Value != nil && *m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; a bound is a share of it, so it must never be 0", w.name, d.Name, *m.Value)
					}
				}
			}
		}

		// The printed report names every metric with its unit too.
		var report bytes.Buffer
		printWorkload(&report, ct, w, r)
		for _, d := range append(append([]metricDef{}, ct.EndToEnd...), ct.PerLayer...) {
			if !strings.Contains(report.String(), " "+d.Name+" ") {
				t.Errorf("%s: report does not print %s", w.name, d.Name)
			}
		}
	}
}

// The recorded run uses BENCHMARK.json's run_seconds and the paths it names.
func TestContractFile(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		EndToEnd   []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./benchmark" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	// 4 + 22 runs per workload, each run_seconds long plus pool, references
	// and five set-ups (1 s on dlrm_tiny to 10 s on gpt2_kvcache, 4.2 s on
	// average), must fit the driver's 3420 s with room for two builds.
	if runs := 4 + 22*len(workloads); float64(runs)*(float64(doc.RunSeconds)+5) > 3000 {
		t.Errorf("run_seconds %d: %d runs would not fit the driver's budget", doc.RunSeconds, runs)
	}
	hasSetup := false
	for _, d := range doc.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
}
