package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L builds a metric label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates series payloads.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge" // gauges and gauge funcs expose as gauge
	}
}

// Counter is a monotonically increasing integer. The zero value is ready;
// a nil *Counter is inert (every method no-ops), so instrumented code can
// hold counters unconditionally.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64. Nil-safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add applies a delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Observations are lock-free
// atomic increments; bounds are immutable after creation. Nil-safe.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	sum    Gauge // atomic float64 accumulator
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// ExpBuckets returns n exponentially spaced bucket bounds: start,
// start*factor, ... Useful for latency histograms spanning decades.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyNsBuckets spans 1µs..~4s in nanoseconds — the default for the
// simulated-latency histograms.
func LatencyNsBuckets() []float64 { return ExpBuckets(1e3, 4, 12) }

// series is one registered (name, labels) instance.
type series struct {
	name   string
	labels []Label
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	// funcs are the on-scrape callbacks of a GaugeFunc series; several
	// registrations on one key are summed at collection (e.g. the pool
	// gauges of two servers sharing one registry).
	mu    sync.Mutex
	funcs []func() float64
}

// value evaluates the series' scalar (counters, gauges, gauge funcs).
func (s *series) value() float64 {
	switch s.kind {
	case kindCounter:
		return float64(s.counter.Value())
	case kindGauge:
		return s.gauge.Value()
	case kindGaugeFunc:
		s.mu.Lock()
		fns := append([]func() float64(nil), s.funcs...)
		s.mu.Unlock()
		var sum float64
		for _, fn := range fns {
			sum += fn()
		}
		return sum
	}
	return 0
}

// regShards is the lock-shard count; series keys hash across them so
// registration and lookup from concurrent requests do not serialize on
// one mutex. (Post-lookup operations are atomic and take no lock at all —
// callers cache the returned handles.)
const regShards = 16

// Registry holds metric series. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is inert for the helper methods that
// tolerate it (Observe-side code guards with a nil check before lookup).
type Registry struct {
	shards [regShards]struct {
		mu     sync.Mutex
		series map[string]*series
	}
	// kinds enforces one kind per metric name across all shards.
	kinds sync.Map // name -> metricKind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].series = map[string]*series{}
	}
	return r
}

// seriesKey canonicalizes a (name, labels) identity: labels sorted by key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range ls {
		sb.WriteByte('|')
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// fnv32 hashes a series key onto a shard.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// get returns (creating if absent) the series for (name, labels, kind).
// Registering one name with two kinds, or an invalid name/label, panics:
// these are programming errors, caught by the first scrape in tests.
func (r *Registry) get(name string, kind metricKind, labels []Label, init func(*series)) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, l.Key))
		}
	}
	if prev, loaded := r.kinds.LoadOrStore(name, kind); loaded && prev.(metricKind) != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, prev.(metricKind), kind))
	}
	key := seriesKey(name, labels)
	sh := &r.shards[fnv32(key)%regShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.series[key]; ok {
		return s
	}
	s := &series{name: name, labels: append([]Label(nil), labels...), kind: kind}
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	init(s)
	sh.series[key] = s
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. Call sites cache the handle; subsequent Inc/Add are lock-free.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, labels, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, kindGauge, labels, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// Histogram returns the histogram for (name, labels). Buckets are fixed
// by the first registration of the series; later calls reuse them.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, kindHistogram, labels, func(s *series) {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}).hist
}

// GaugeFunc registers an on-scrape callback for (name, labels). Multiple
// callbacks on one series are summed at collection time, so independent
// owners (two servers sharing one registry, say) can contribute to one
// aggregate series without coordination. A callback is never removed:
// register from long-lived owners only, since everything it closes over
// stays reachable for the registry's lifetime.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	s := r.get(name, kindGaugeFunc, labels, func(*series) {})
	s.mu.Lock()
	s.funcs = append(s.funcs, fn)
	s.mu.Unlock()
}

// snapshot collects every series grouped by metric name.
func (r *Registry) snapshot() map[string][]*series {
	out := map[string][]*series{}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			out[s.name] = append(out[s.name], s)
		}
		sh.mu.Unlock()
	}
	return out
}
