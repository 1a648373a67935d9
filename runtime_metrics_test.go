package godisc

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestNewMetricsRuntimeSeries: a NewMetrics registry carries the Go
// runtime series, each exactly once, and reads live values on scrape.
func TestNewMetricsRuntimeSeries(t *testing.T) {
	reg := NewMetrics()
	runtime.GC()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if _, dup := values[name]; dup {
			t.Fatalf("series %s exposed twice", name)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		values[name] = f
	}
	if len(values) != len(runtimeGauges)+1 {
		t.Fatalf("want %d runtime series, got %v", len(runtimeGauges)+1, values)
	}
	for name, v := range values {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("%s = %v", name, v)
		}
	}
	if values["godisc_go_goroutines"] < 1 || values["godisc_go_heap_live_bytes"] <= 0 ||
		values["godisc_go_heap_objects"] <= 0 || values["godisc_go_gc_cycles_total"] < 1 {
		t.Fatalf("implausible runtime readings: %v", values)
	}
	if f := values["godisc_go_gc_cpu_fraction"]; f > 1 {
		t.Fatalf("gc cpu fraction %v > 1", f)
	}
}
