package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric names follow the Prometheus conventions: snake_case, a unit
// suffix, _total for counters. Labels are passed as alternating
// key/value pairs; a (name, label set) pair always resolves to the
// same metric instance, so hot paths should resolve once and keep the
// handle instead of re-looking it up per update.

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into a fixed cumulative bucket layout
// chosen at registration. Observations are lock-free.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sumBit atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBit.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBit.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBit.Load()) }

// DefSecondsBuckets is the default bucket layout for wall-time
// histograms, spanning sub-millisecond LP solves to the paper's
// 15-minute ILP cap.
var DefSecondsBuckets = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 300, 900,
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is all series of one metric name.
type family struct {
	name    string
	kind    metricKind
	buckets []float64
	series  map[string]any // label string -> *Counter / *Gauge / *Histogram
}

// Registry is a set of named metrics. The zero value is not usable;
// call NewRegistry, or use the process-wide Default registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every solver layer feeds.
func Default() *Registry { return defaultRegistry }

// labelString renders alternating key/value pairs as a canonical
// Prometheus label block ({} order is sorted by key).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		labels = append(labels, "")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []string) any {
	key := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, buckets: buckets, series: map[string]any{}}
		r.families[name] = f
	}
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		b := f.buckets
		if b == nil {
			b = DefSecondsBuckets
		}
		h := &Histogram{bounds: b}
		h.counts = make([]atomic.Int64, len(b)+1)
		m = h
	}
	f.series[key] = m
	return m
}

// Counter returns (registering on first use) the counter with the
// given name and label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, kindCounter, nil, labels).(*Counter)
}

// Gauge returns the gauge with the given name and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns the histogram with the given name, bucket layout
// (nil: DefSecondsBuckets; the layout of the first registration of a
// name wins), and label pairs.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	return r.lookup(name, kindHistogram, buckets, labels).(*Histogram)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format, families and series in stable sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type snap struct {
		f      *family
		labels []string
	}
	snaps := make([]snap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		ls := make([]string, 0, len(f.series))
		for l := range f.series {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		snaps = append(snaps, snap{f, ls})
	}
	r.mu.Unlock()

	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.f.name, s.f.kind); err != nil {
			return err
		}
		for _, l := range s.labels {
			m := s.f.series[l]
			switch m := m.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", s.f.name, l, m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", s.f.name, l, m.Value())
			case *Histogram:
				writeHistogram(w, s.f.name, l, m)
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", formatBound(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// mergeLabel splices one extra label pair into a rendered label block.
func mergeLabel(labels, k, v string) string {
	extra := fmt.Sprintf(`%s="%s"`, k, escapeLabel(v))
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Snapshot flattens the registry into name{labels} -> value. Counters
// and gauges map to their value; histograms contribute _count and
// _sum entries. Used by the bench JSON export and expvar.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	type entry struct {
		name string
		m    any
	}
	var entries []entry
	for n, f := range r.families {
		for l, m := range f.series {
			entries = append(entries, entry{n + l, m})
		}
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		switch m := e.m.(type) {
		case *Counter:
			out[e.name] = float64(m.Value())
		case *Gauge:
			out[e.name] = float64(m.Value())
		case *Histogram:
			out[e.name+"_count"] = float64(m.Count())
			out[e.name+"_sum"] = m.Sum()
		}
	}
	return out
}
