// Package obs is the solver stack's zero-dependency observability
// layer: hierarchical spans carried through contexts, a process-wide
// metrics registry (counters, gauges, fixed-bucket histograms), and
// exporters for everything the paper's evaluation watches live —
// Chrome trace-event span dumps (loadable in Perfetto), a JSONL event
// log, Prometheus text format, expvar, and net/http/pprof behind one
// debug handler.
//
// The package is a leaf like internal/solve: it imports only the
// standard library, so every solver layer (washpath, pdw, dawo,
// synth, harness) and both CLIs can depend on it without cycles.
//
// # Cost contract
//
// Span recording is off by default and gated by one atomic flag; the
// flag gates spans only. While disabled:
//
//   - Start returns (ctx, nil) after a single atomic load — no
//     allocation, no context wrapping;
//   - every *Span method is nil-safe and returns immediately.
//
// Metrics are always counted, once per finished search, phase or run,
// and never inside a node loop: the searches publish only to their
// solve.Progress as they run, and feed the registry from the same
// counts when they return (DESIGN.md "Observability cost contract").
// No code outside this package calls Enabled.
//
// Enabling (cmd flags -listen, -trace, -events, or Enable directly)
// turns on span recording and delivery to the registered sinks.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-wide span gate. All span recording paths
// check it first; the disabled path must stay allocation-free.
var enabled atomic.Bool

// Enable turns span recording on. Metrics are counted either way.
func Enable() { enabled.Store(true) }

// Disable turns span recording off. Spans already started while
// enabled still deliver to sinks on End.
func Disable() { enabled.Store(false) }

// Enabled reports whether spans are being recorded.
func Enabled() bool { return enabled.Load() }

// Attr is one key/value annotation on a span or event. Values must be
// JSON-encodable (strings, numbers, bools).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// A is shorthand for constructing an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is a point-in-time annotation inside a span.
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one timed region of the pipeline. Spans form a tree through
// the context: Start under a context carrying a span makes the new
// span its child. A nil *Span is valid everywhere (the disabled path).
type Span struct {
	name   string
	id     uint64
	parent uint64
	// root is the id of the span tree's root; the Chrome exporter maps
	// each root to its own thread row so concurrent benchmark runs
	// render as parallel tracks in Perfetto.
	root  uint64
	start time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	ended  bool
}

// SpanData is the immutable snapshot delivered to sinks when a span
// ends.
type SpanData struct {
	Name     string        `json:"name"`
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Root     uint64        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Events   []Event       `json:"events,omitempty"`
}

type spanKey struct{}

var nextSpanID atomic.Uint64

// Start opens a span named name as a child of the span carried by ctx
// (if any) and returns a derived context carrying it. When the layer
// is disabled it returns (ctx, nil) with no allocation; all *Span
// methods tolerate nil, so call sites never need to guard.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	s := &Span{
		name:  name,
		id:    nextSpanID.Add(1),
		start: time.Now(),
		attrs: attrs,
	}
	if parent := FromContext(ctx); parent != nil {
		s.parent = parent.id
		s.root = parent.root
	} else {
		s.root = s.id
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ID returns the span's process-unique id (0 for nil spans).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Root returns the id of the span tree's root (0 for nil spans). A
// request-scoped collector can key every span of one request by this:
// spans started under the request's root context all share it.
func (s *Span) Root() uint64 {
	if s == nil {
		return 0
	}
	return s.root
}

// SetAttr annotates the span. No-op on nil or ended spans.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Event records a point-in-time event inside the span. No-op on nil
// or ended spans.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.events = append(s.events, Event{Name: name, Time: time.Now(), Attrs: attrs})
	}
	s.mu.Unlock()
}

// End closes the span and delivers its snapshot to every registered
// sink. Safe on nil spans and idempotent.
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
	data := SpanData{
		Name:     s.name,
		ID:       s.id,
		Parent:   s.parent,
		Root:     s.root,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    s.attrs,
		Events:   s.events,
	}
	s.mu.Unlock()
	deliver(data)
}

// RecordSpan delivers an already-timed region as a completed span
// without the Start/End context dance: a caller notes time.Now() once
// and records the region afterwards (synthesis times its placement,
// binding and scheduling stages this way; pdwd its requests).
// The span parents under the span carried by ctx. No-op when disabled.
func RecordSpan(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if !enabled.Load() {
		return
	}
	data := SpanData{
		Name:     name,
		ID:       nextSpanID.Add(1),
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	}
	if parent := FromContext(ctx); parent != nil {
		data.Parent = parent.id
		data.Root = parent.root
	} else {
		data.Root = data.ID
	}
	deliver(data)
}

// Sink consumes finished spans. OnSpanEnd must be safe for concurrent
// use; it is called synchronously from End.
type Sink interface {
	OnSpanEnd(SpanData)
}

var sinks struct {
	mu   sync.RWMutex
	list []Sink
}

// AddSink registers a sink and returns a function that removes it.
func AddSink(s Sink) (remove func()) {
	sinks.mu.Lock()
	sinks.list = append(sinks.list, s)
	sinks.mu.Unlock()
	return func() {
		sinks.mu.Lock()
		defer sinks.mu.Unlock()
		for i, x := range sinks.list {
			if x == s {
				sinks.list = append(sinks.list[:i:i], sinks.list[i+1:]...)
				return
			}
		}
	}
}

func deliver(d SpanData) {
	sinks.mu.RLock()
	list := sinks.list
	sinks.mu.RUnlock()
	for _, s := range list {
		s.OnSpanEnd(d)
	}
}
