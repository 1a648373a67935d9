package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	ct := &contract{
		Workloads: []struct {
			Name string `json:"name"`
		}{{Name: "w"}},
		EndToEnd: []metricDef{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	write := func(name string, lat, rps float64) string {
		f := resultFile{Workloads: map[string]workloadResult{"w": {Timed: &timedResult{
			E2E: map[string]float64{"latency_p50_ms": lat, "throughput_rps": rps},
		}}}}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, 100)

	var out bytes.Buffer
	if err := compareFiles(&out, ct, base, write("b.json", 10.9, 91)); err != nil {
		t.Errorf("within bounds, yet: %v\n%s", err, &out)
	}
	// Worse by +9.0 % either way: slower latency and lower throughput both
	// print as positive.
	if n := strings.Count(out.String(), "+9.0%"); n != 2 {
		t.Errorf("want two rows worse by +9.0%%, got:\n%s", &out)
	}

	out.Reset()
	err := compareFiles(&out, ct, base, write("c.json", 10, 85))
	if err == nil || !strings.Contains(out.String(), "EXCEEDS BOUND") {
		t.Errorf("throughput 15 %% lower must exceed a 10 %% bound: err %v\n%s", err, &out)
	}
	// Two runs of one commit that disagree by more than the bound fail the
	// comparison in the better direction too.
	if err := compareFiles(&out, ct, base, write("d.json", 8, 100)); err == nil {
		t.Error("latency 20 % lower passed a 10 % repeatability bound")
	}
	if err := compareFiles(&out, ct, base, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing file compared equal")
	}
}
