// Package reqlog is the request-scoped observability layer behind
// pdwd: per-request identity (W3C trace context + a request id)
// carried through the context, a fixed-size flight recorder of
// completed request records with tail-sampling, structured slog
// helpers, and debug endpoints exposing the ring and per-request
// Chrome-trace exports (DESIGN.md "Request observability contract").
//
// Where internal/obs answers "what is the process doing" (aggregate
// spans, counters, histograms), reqlog answers "what happened to THIS
// request": its phase timeline, span tree, cache/shed/degraded flags,
// admission queue wait, and budget vs. actual wall time — the evidence
// an operator needs for "why was this one slow?".
//
// # Tail-sampling
//
// The ring would be useless if 10k boring cache hits evicted the one
// request that mattered, so retention is decided after the outcome is
// known: error, rejected (429), degraded (shed), canceled (client
// hang-up), and overrun (budget-expired) requests are always kept, as
// is anything in the top latency percentile of recent traffic; the
// boring rest (ok/cached/coalesced) is sampled 1-in-N. Every record
// carries its retention reason.
package reqlog

import (
	"context"
	"sort"
	"sync"
	"time"

	"pathdriverwash/internal/obs"
)

// Outcome classifies how a request ended. The service maps its error
// sentinels and response flags onto these; requests that never get an
// explicit outcome (e.g. plain HTTP traffic) derive one from the HTTP
// status at End.
type Outcome string

const (
	// OutcomeOK is a full-fidelity success.
	OutcomeOK Outcome = "ok"
	// OutcomeCached was served from the incumbent cache.
	OutcomeCached Outcome = "cached"
	// OutcomeCoalesced piggybacked on an identical in-flight solve.
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeDegraded was shed to the heuristic warm-start.
	OutcomeDegraded Outcome = "degraded"
	// OutcomeCanceled means the client hung up (context canceled).
	OutcomeCanceled Outcome = "canceled"
	// OutcomeOverrun means the budget expired: either the solve still
	// answered with degraded incumbents, or it failed outright.
	OutcomeOverrun Outcome = "overrun"
	// OutcomeRejected is an admission rejection (429, full queue).
	OutcomeRejected Outcome = "rejected"
	// OutcomeError is any other failure.
	OutcomeError Outcome = "error"
)

// boring reports whether an outcome is sampled rather than always
// retained.
func (o Outcome) boring() bool {
	return o == OutcomeOK || o == OutcomeCached || o == OutcomeCoalesced
}

// Valid reports whether o is one of the defined outcome classes. The
// /debug/requests handler rejects filters that are not — an unknown
// outcome silently matching nothing looks exactly like "no such
// requests", which is the wrong answer to give an operator mid-incident.
func (o Outcome) Valid() bool {
	switch o {
	case OutcomeOK, OutcomeCached, OutcomeCoalesced, OutcomeDegraded,
		OutcomeCanceled, OutcomeOverrun, OutcomeRejected, OutcomeError:
		return true
	}
	return false
}

// Phase is one pipeline phase of a solve, mirrored from
// solve.PhaseStat without importing the solver stack.
type Phase struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
}

// Record is one completed request as the flight recorder keeps it.
type Record struct {
	ID      string    `json:"id"`
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	// Wall is the request's total wall time; Budget the clamped solve
	// budget it ran under (0: none recorded); Overrun flags Wall
	// exceeding Budget.
	Wall    time.Duration `json:"wall_ns"`
	Budget  time.Duration `json:"budget_ns,omitempty"`
	Overrun bool          `json:"overrun,omitempty"`
	// QueueWait is the time spent waiting for an admission worker slot.
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`

	Outcome Outcome `json:"outcome"`
	// Keep is the retention reason: "outcome", "latency", or "sampled".
	Keep string `json:"keep"`

	HTTPMethod string `json:"http_method,omitempty"`
	Path       string `json:"path,omitempty"`
	Code       int    `json:"code,omitempty"`

	// Method is the solver method ("pdw", "dawo"); the flags mirror the
	// wire response's service flags.
	Method    string `json:"method,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Canceled  bool   `json:"canceled,omitempty"`
	Err       string `json:"error,omitempty"`

	// Phases is the solve's phase timeline (from solve.Stats).
	Phases []Phase `json:"phases,omitempty"`
	// Progress is the solve's final live-progress snapshot (nodes,
	// pruned, incumbent/bound/gap), stamped by the service when the
	// solve returns — the terminal point of the trajectory
	// /debug/solves showed while the request was in flight.
	Progress *obs.SolveSnapshot `json:"progress,omitempty"`
	// ProfileID links to the profile bundle this request's completion
	// triggered (GET /debug/profiles/{id}); empty when no trigger is
	// installed, the request was unremarkable, or the trigger was
	// rate-limited.
	ProfileID string `json:"profile_id,omitempty"`
	// Spans is the request's span tree (capped at Config.MaxSpans);
	// SpanCount is the number captured. The /debug/requests listing
	// omits Spans — the per-request trace endpoint exports them.
	Spans     []obs.SpanData `json:"spans,omitempty"`
	SpanCount int            `json:"span_count,omitempty"`
}

// Config tunes a Recorder. The zero value keeps 512 records, samples
// 1-in-16 boring requests, and caps each record at 512 spans.
type Config struct {
	// Depth is the ring capacity in kept records.
	Depth int
	// SampleEvery keeps one in N boring (ok/cached/coalesced,
	// non-tail-latency) requests. 1 keeps everything.
	SampleEvery int
	// MaxSpans caps the spans captured per request.
	MaxSpans int
	// Trigger, when set, is offered every anomalous completed request
	// (budget overrun, shed/degraded, tail latency — the same
	// conditions the keep logic always retains); a successful Trip's
	// capture id is stamped on the record as ProfileID. internal/obs/
	// prof.Engine implements it.
	Trigger ProfileTrigger
}

// ProfileTrigger arms an evidence capture for an anomalous request.
// Implementations must be safe for concurrent use and fast on the
// suppressed path: Trip is called under the recorder's ring lock.
type ProfileTrigger interface {
	// Trip requests a capture attributed to requestID for the given
	// reason ("overrun", "shed", "latency"). It returns the capture id
	// and true when armed, or false when suppressed (rate limit,
	// capture already running).
	Trip(reason, requestID string) (id string, ok bool)
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = 512
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// latWindow is the recent-latency reservoir size and latRecompute how
// often the tail threshold is refreshed from it; latMin is the minimum
// fill before latency retention kicks in (so startup traffic is not
// all "tail").
const (
	latWindow    = 128
	latRecompute = 32
	latMin       = 32
	latQuantile  = 0.95
)

// Recorder is the flight recorder: a fixed-size ring of completed
// request records plus the registry of in-flight requests it routes
// span deliveries to. All methods are safe for concurrent use; a nil
// *Recorder is valid everywhere and records nothing, so wiring can be
// left unconditional.
type Recorder struct {
	cfg Config

	// amu guards active, the obs root-span-id -> in-flight request
	// index the Sink path reads. It is an RWMutex because OnSpanEnd
	// (read) fires for every span in the process while requests come
	// and go far more rarely.
	amu    sync.RWMutex
	active map[uint64]*Request

	// mu guards the ring and the sampling state. Everything under it is
	// O(1) appends or a bounded sort every latRecompute requests.
	mu       sync.Mutex
	ring     []Record // circular, cap cfg.Depth
	next     int      // ring write cursor
	total    uint64   // requests observed (kept or not)
	boringN  uint64   // boring-request counter for 1-in-N sampling
	lat      [latWindow]float64
	latN     int     // total latencies observed
	tailSecs float64 // cached latency threshold; 0 until latMin seen

	removeSink func()
}

// NewRecorder returns a running recorder registered as an obs span
// sink (so request span trees are captured whenever the obs layer is
// enabled). Call Close to unregister it.
func NewRecorder(cfg Config) *Recorder {
	r := &Recorder{
		cfg:    cfg.withDefaults(),
		active: map[uint64]*Request{},
	}
	r.removeSink = obs.AddSink(r)
	return r
}

// Close unregisters the recorder from the obs sink list. The ring
// remains readable.
func (r *Recorder) Close() {
	if r == nil || r.removeSink == nil {
		return
	}
	r.removeSink()
	r.removeSink = nil
}

// Cap is the ring capacity (0 on nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.cfg.Depth
}

// Len is the number of records currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Total is the number of requests observed, kept or sampled away.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Records returns a snapshot of the ring, newest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.ring))
	// next-1 is the newest slot; walk backwards.
	for i := 0; i < len(r.ring); i++ {
		out = append(out, r.ring[(r.next-1-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Find returns the retained record with the given request id.
func (r *Recorder) Find(id string) (Record, bool) {
	if r == nil {
		return Record{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range r.ring {
		if rec.ID == id {
			return rec, true
		}
	}
	return Record{}, false
}

// OnSpanEnd implements obs.Sink: finished spans route to the in-flight
// request owning their root, if any. The miss path (spans from
// non-request work) is one RLock and a map lookup.
func (r *Recorder) OnSpanEnd(d obs.SpanData) {
	r.amu.RLock()
	q := r.active[d.Root]
	r.amu.RUnlock()
	if q != nil {
		q.addSpan(d)
	}
}

// observe applies the tail-sampling policy and pushes kept records
// into the ring.
func (r *Recorder) observe(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++

	// Update the recent-latency reservoir and, periodically, the tail
	// threshold derived from it.
	r.lat[r.latN%latWindow] = rec.Wall.Seconds()
	r.latN++
	if r.latN >= latMin && (r.tailSecs == 0 || r.latN%latRecompute == 0) {
		n := min(r.latN, latWindow)
		sorted := make([]float64, n)
		copy(sorted, r.lat[:n])
		sort.Float64s(sorted)
		r.tailSecs = sorted[min(int(float64(n)*latQuantile), n-1)]
	}

	switch {
	case !rec.Outcome.boring() || rec.Overrun:
		rec.Keep = "outcome"
	case r.tailSecs > 0 && rec.Wall.Seconds() >= r.tailSecs:
		rec.Keep = "latency"
	default:
		r.boringN++
		if r.boringN%uint64(r.cfg.SampleEvery) != 0 {
			return
		}
		rec.Keep = "sampled"
	}

	// Anomalous completions offer the profiling trigger a shot at
	// capturing evidence; the capture id (if one armed) lands on the
	// record so /debug/requests links straight to /debug/profiles/{id}.
	// The trigger runs its capture asynchronously — Trip itself is a
	// rate-limit check — and never calls back into the recorder, so
	// holding r.mu here is safe.
	if r.cfg.Trigger != nil {
		if reason := anomalyReason(rec); reason != "" {
			if id, ok := r.cfg.Trigger.Trip(reason, rec.ID); ok {
				rec.ProfileID = id
			}
		}
	}

	if len(r.ring) < r.cfg.Depth {
		r.ring = append(r.ring, rec)
		r.next = len(r.ring) % r.cfg.Depth
		return
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % r.cfg.Depth
}

// reqKey carries the active *Request in a context.
type reqKey struct{}

// FromContext returns the in-flight request carried by ctx, or nil.
func FromContext(ctx context.Context) *Request {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(reqKey{}).(*Request)
	return q
}

// Request is one in-flight request being recorded. All methods are
// nil-safe and no-ops after End, so annotation sites never guard (and
// a detached leader annotating after its client's record closed is
// harmless).
type Request struct {
	rec  *Recorder
	tc   TraceContext
	root uint64 // obs root span id, 0 when obs is disabled
	span *obs.Span

	mu    sync.Mutex
	ended bool
	r     Record
}

// Begin opens a request: it resolves the identity (continuing the
// given W3C traceparent value if valid, otherwise minting a fresh
// trace), opens the root "request" span when the obs layer is enabled,
// and returns a context carrying the request for downstream
// annotation. Safe on a nil recorder (returns ctx, nil).
func (r *Recorder) Begin(ctx context.Context, traceparent string) (context.Context, *Request) {
	if r == nil {
		return ctx, nil
	}
	tc, err := ParseTraceparent(traceparent)
	if err == nil {
		tc = tc.Child()
	} else {
		tc = NewTraceContext()
	}
	q := &Request{rec: r, tc: tc}
	q.r.ID = newRequestID()
	q.r.TraceID = tc.TraceIDString()
	q.r.Start = time.Now()

	ctx, span := obs.Start(ctx, "request",
		obs.A("request_id", q.r.ID), obs.A("trace_id", q.r.TraceID))
	if span != nil {
		q.span = span
		q.root = span.Root()
		r.amu.Lock()
		r.active[q.root] = q
		r.amu.Unlock()
	}
	return context.WithValue(ctx, reqKey{}, q), q
}

// ID returns the request id ("" on nil).
func (q *Request) ID() string {
	if q == nil {
		return ""
	}
	return q.r.ID
}

// Trace returns the request's trace context (zero on nil).
func (q *Request) Trace() TraceContext {
	if q == nil {
		return TraceContext{}
	}
	return q.tc
}

// Outcome returns the outcome recorded so far (derived ones appear
// only after End).
func (q *Request) Outcome() Outcome {
	if q == nil {
		return ""
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.r.Outcome
}

// annotate runs f on the accumulating record unless the request ended.
func (q *Request) annotate(f func(*Record)) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if !q.ended {
		f(&q.r)
	}
	q.mu.Unlock()
}

// SetHTTP records the HTTP-level view of the request.
func (q *Request) SetHTTP(method, path string, code int) {
	q.annotate(func(r *Record) { r.HTTPMethod, r.Path, r.Code = method, path, code })
}

// SetOutcome records the explicit outcome classification.
func (q *Request) SetOutcome(o Outcome) {
	q.annotate(func(r *Record) { r.Outcome = o })
}

// SetSolve records the solve-layer summary: method, status code,
// service flags, failure text, and the phase timeline.
func (q *Request) SetSolve(method string, code int, degraded, cached, coalesced, canceled bool, errText string, phases []Phase) {
	q.annotate(func(r *Record) {
		r.Method, r.Code = method, code
		r.Degraded, r.Cached, r.Coalesced, r.Canceled = degraded, cached, coalesced, canceled
		r.Err = errText
		r.Phases = phases
	})
}

// SetBudget records the clamped solve budget the request ran under.
func (q *Request) SetBudget(d time.Duration) {
	q.annotate(func(r *Record) { r.Budget = d })
}

// SetQueueWait records the admission queue wait.
func (q *Request) SetQueueWait(d time.Duration) {
	q.annotate(func(r *Record) { r.QueueWait = d })
}

// SetProgress records the solve's final live-progress snapshot.
func (q *Request) SetProgress(s obs.SolveSnapshot) {
	q.annotate(func(r *Record) { r.Progress = &s })
}

// addSpan appends one finished span, up to the per-request cap.
func (q *Request) addSpan(d obs.SpanData) {
	q.mu.Lock()
	if !q.ended {
		q.r.SpanCount++
		if len(q.r.Spans) < q.rec.cfg.MaxSpans {
			q.r.Spans = append(q.r.Spans, d)
		}
	}
	q.mu.Unlock()
}

// End closes the request: the root span ends (delivering it into the
// record), the request leaves the active index, the wall time, overrun
// flag, and any derived outcome are finalized, and the record enters
// the tail-sampling gate. Idempotent and nil-safe.
func (q *Request) End() {
	if q == nil {
		return
	}
	// Ending the root span delivers it through OnSpanEnd into q.r.Spans
	// before the ended flag flips below.
	q.span.End()
	if q.root != 0 {
		q.rec.amu.Lock()
		delete(q.rec.active, q.root)
		q.rec.amu.Unlock()
	}

	q.mu.Lock()
	if q.ended {
		q.mu.Unlock()
		return
	}
	q.ended = true
	q.r.Wall = time.Since(q.r.Start)
	if q.r.Budget > 0 && q.r.Wall > q.r.Budget {
		q.r.Overrun = true
	}
	if q.r.Outcome == "" {
		q.r.Outcome = deriveOutcome(q.r.Code)
	}
	rec := q.r
	q.mu.Unlock()
	q.rec.observe(rec)
}

// anomalyReason maps a kept record to the profiling trigger reason it
// justifies, or "" for records that are merely retained (errors and
// rejections are kept for the ring but are cheap fast paths — profiling
// them would tell us nothing about solver behavior).
func anomalyReason(rec Record) string {
	switch {
	case rec.Outcome == OutcomeOverrun || rec.Overrun:
		return "overrun"
	case rec.Outcome == OutcomeDegraded:
		return "shed"
	case rec.Keep == "latency":
		return "latency"
	}
	return ""
}

// deriveOutcome classifies requests nothing annotated (plain HTTP
// traffic, health checks) from the status code alone.
func deriveOutcome(code int) Outcome {
	switch {
	case code == 429:
		return OutcomeRejected
	case code == 499:
		return OutcomeCanceled
	case code >= 400:
		return OutcomeError
	default:
		return OutcomeOK
	}
}
