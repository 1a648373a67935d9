package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed node of a request trace. All methods are safe on a
// nil receiver (the observability-off state) and safe for concurrent use.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	dur      time.Duration
	ended    bool

	// tracer is set on root spans only; End delivers the finished tree
	// to its ring buffer.
	tracer *Tracer
}

// Child opens a sub-span. The returned span must be ended by its owner;
// a nil receiver returns nil, so call sites need no guards beyond the one
// they already have.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), attrs: attrs}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr adds (or appends — later values win on export) an attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End stamps the span's duration. Idempotent; the first End wins. Ending
// a root span delivers the whole tree to its tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.record(s)
	}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the measured duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// SpanData is the exported snapshot of one span subtree.
type SpanData struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanData        `json:"children,omitempty"`
}

// Data snapshots the span subtree. Safe to call while descendants are
// still running (their DurNs reads zero until they End).
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	d := SpanData{Name: s.name, Start: s.start, DurNs: int64(s.dur)}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Data())
	}
	return d
}

// Tracer collects finished request traces into a bounded ring buffer (the
// most recent Limit roots survive). It implements Hook; a nil *Tracer is
// valid and inert, so it can be threaded unconditionally.
type Tracer struct {
	mu    sync.Mutex
	limit int
	roots []*Span
	next  int
	count int64
	drops int64
}

// DefaultTraceLimit is the root-span ring capacity when NewTracer is
// given a non-positive limit.
const DefaultTraceLimit = 256

// NewTracer returns a tracer keeping the most recent `limit` root spans
// (DefaultTraceLimit when limit <= 0).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{limit: limit}
}

// StartSpan implements Hook: it opens a root span whose End records the
// finished tree. Nil tracers return nil spans.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{name: name, start: time.Now(), attrs: attrs, tracer: t}
}

// record lands a finished root in the ring.
func (t *Tracer) record(root *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.roots) < t.limit {
		t.roots = append(t.roots, root)
	} else {
		t.roots[t.next] = root
		t.next = (t.next + 1) % t.limit
		t.drops++
	}
	t.count++
}

// Len reports how many root spans the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.roots)
}

// Recorded reports the total number of root spans ever finished, and how
// many were evicted from the ring.
func (t *Tracer) Recorded() (total, dropped int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count, t.drops
}

// Snapshot returns the retained root spans, oldest first.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ordered := make([]*Span, 0, len(t.roots))
	if len(t.roots) < t.limit {
		ordered = append(ordered, t.roots...)
	} else {
		ordered = append(ordered, t.roots[t.next:]...)
		ordered = append(ordered, t.roots[:t.next]...)
	}
	t.mu.Unlock()
	out := make([]SpanData, len(ordered))
	for i, r := range ordered {
		out[i] = r.Data()
	}
	return out
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span, so layers
// below (the execution engine, behind an interface that cannot grow a
// span parameter) attach their sub-spans to the right request.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
