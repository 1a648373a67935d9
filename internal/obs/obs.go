// Package obs is the zero-dependency observability layer of the serving
// stack: hierarchical request tracing, a lock-sharded metrics registry,
// and nil-safe profiling hooks threaded through the compile/execute path.
//
// The design contract is that observability OFF must cost (almost)
// nothing: every instrumentation point in the hot path guards on a nil
// Hook/Span/Registry pointer — one predictable branch, no allocation, no
// time.Now() — and only pays for clock reads, span allocation and label
// formatting when a Tracer or Registry is actually installed
// (godisc.WithTracer / ServerConfig.Observer / ServerConfig.Metrics).
//
// Three pieces:
//
//   - Tracer/Span (trace.go): hierarchical wall-time spans per request —
//     infer → cache-lookup → compile → exec → per-unit kernel/library →
//     fallback/retry — with string attributes (engine signature, shape
//     bucket, kernel name). Completed root spans land in a bounded ring
//     and export as structured JSON or as a Chrome trace_event file
//     (export.go) that chrome://tracing / Perfetto opens directly.
//
//   - Registry (registry.go): counters, gauges, histograms and on-scrape
//     gauge funcs, sharded 16 ways by series key so concurrent request
//     goroutines never contend on one lock; values themselves are
//     atomics, so the post-registration fast path is lock-free. Exported
//     in Prometheus text exposition format (prom.go).
//
//   - Hook: the minimal interface the hot paths call to open spans.
//     *Tracer implements it; tests substitute recorders.
//
// HTTP serving (/metrics, /debug/trace) is in http.go; cmd/discserve
// mounts it behind the -http flag.
package obs

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// A builds a span attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Hook is the minimal observer interface instrumented code paths hold.
// A nil Hook is the disabled state: callers guard every use with a nil
// check, which is the single branch the hot path pays. *Tracer is the
// standard implementation.
type Hook interface {
	// StartSpan opens a root span. The caller must End it.
	StartSpan(name string, attrs ...Attr) *Span
}

// StartChild opens a span under parent when parent is non-nil, as a new
// root on h when only h is non-nil, and returns nil (a valid, inert span)
// when observability is off. It is the one-liner instrumentation points
// use so they need no knowledge of where they sit in the request tree.
func StartChild(h Hook, parent *Span, name string, attrs ...Attr) *Span {
	if parent != nil {
		return parent.Child(name, attrs...)
	}
	if h != nil {
		return h.StartSpan(name, attrs...)
	}
	return nil
}
