package godisc

import (
	"runtime/metrics"

	"godisc/internal/obs"
)

// runtimeGauges maps each Go runtime gauge NewMetrics registers to the
// runtime/metrics sample it reads.
var runtimeGauges = []struct{ name, sample string }{
	{"godisc_go_heap_live_bytes", "/gc/heap/live:bytes"},
	{"godisc_go_heap_objects", "/gc/heap/objects:objects"},
	{"godisc_go_goroutines", "/sched/goroutines:goroutines"},
	{"godisc_go_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
}

// observeRuntime registers the Go runtime's own accounting on reg: live
// heap bytes (as of the last GC), heap objects, goroutines, completed GC
// cycles, and godisc_go_gc_cpu_fraction — the share of the process's CPU
// time the collector has used (the runtime refreshes that estimate at
// each GC). Values are read from runtime/metrics on scrape only, so
// serving pays nothing for them.
func observeRuntime(reg *obs.Registry) {
	for _, g := range runtimeGauges {
		reg.GaugeFunc(g.name, func() float64 { return readRuntime(g.sample) })
	}
	reg.GaugeFunc("godisc_go_gc_cpu_fraction", func() float64 {
		s := []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		}
		metrics.Read(s)
		if total := sampleValue(s[1]); total > 0 {
			return sampleValue(s[0]) / total
		}
		return 0
	})
}

// readRuntime reads one runtime/metrics sample by name.
func readRuntime(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return sampleValue(s[0])
}

// sampleValue converts a sample to float64; a metric this runtime does
// not support (KindBad) reads as 0.
func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}
