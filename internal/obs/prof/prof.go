// Package prof is the anomaly-triggered profiling engine behind pdwd:
// when the flight recorder (internal/obs/reqlog) observes an anomalous
// request — budget overrun, a shed solve, or a p95-reservoir tail
// latency, the same conditions its keep logic always retains — the
// engine arms one runtime/pprof CPU capture plus goroutine and heap
// dumps, stores the gzipped profiles in a bounded in-memory ring, and
// links the capture id back into the request's record, so the p95
// outlier on /debug/requests carries its own flame evidence.
//
// Rate limiting keeps the engine safe to leave armed in production: at
// most one capture runs at a time (runtime/pprof allows only one CPU
// profile anyway) and a cooldown separates captures, so an anomaly
// storm costs one profile per cooldown window, not one per request.
package prof

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"pathdriverwash/internal/obs"
)

// Capture is one triggered profile bundle. CPU, Goroutine, and Heap
// hold gzipped pprof protobuf bytes (the formats runtime/pprof writes;
// `go tool pprof` loads them directly). The bundle is Pending until
// the CPU window closes; the dumps are taken at the window's end so
// they see the process state the anomaly left behind.
type Capture struct {
	ID string `json:"id"`
	// Reason is the trigger condition: "overrun", "shed", or "latency".
	Reason string `json:"reason"`
	// RequestID links back to the flight-recorder record whose
	// completion tripped the trigger (its record carries the matching
	// profile_id).
	RequestID string    `json:"request_id,omitempty"`
	Start     time.Time `json:"start"`
	// Duration is the CPU capture window.
	Duration time.Duration `json:"duration_ns"`
	// Done flips when the capture completed and the byte fields below
	// are final.
	Done bool `json:"done"`
	// Err records a CPU capture failure (most likely: another CPU
	// profile — a /debug/pprof/profile scrape — was already running).
	// The goroutine and heap dumps are still taken.
	Err string `json:"error,omitempty"`

	CPU       []byte `json:"-"`
	Goroutine []byte `json:"-"`
	Heap      []byte `json:"-"`
}

// Config tunes an Engine. The zero value captures 1 s CPU windows, no
// more than one per 30 s, keeping the 16 most recent bundles.
type Config struct {
	// CPUDuration is the CPU profile window per capture (0: 1 s).
	CPUDuration time.Duration
	// Cooldown is the minimum gap between the end of one capture and
	// the start of the next (0: 30 s; negative: none).
	Cooldown time.Duration
	// Depth bounds the capture ring (0: 16).
	Depth int
}

func (c Config) withDefaults() Config {
	if c.CPUDuration <= 0 {
		c.CPUDuration = time.Second
	}
	if c.Cooldown == 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Depth <= 0 {
		c.Depth = 16
	}
	return c
}

// Engine owns the capture ring and the arming state. All methods are
// safe for concurrent use; a nil *Engine is valid everywhere and
// triggers nothing, so wiring can be left unconditional.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	ring     []*Capture // circular, cap cfg.Depth
	next     int
	seq      int
	armed    bool
	lastDone time.Time

	suppressedTotal *obs.Counter // resolved at New
}

// New builds an Engine from cfg.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:             cfg.withDefaults(),
		suppressedTotal: obs.Default().Counter("pdwd_profile_suppressed_total"),
	}
}

// Trip implements the reqlog.ProfileTrigger contract: asked to capture
// evidence for an anomalous request, it either arms a capture and
// returns its id, or reports the trigger suppressed (a capture is
// already running, or the cooldown since the last one has not passed).
// The capture itself runs in a background goroutine; the returned id
// is immediately resolvable on /debug/profiles as a pending bundle.
func (e *Engine) Trip(reason, requestID string) (id string, ok bool) {
	if e == nil {
		return "", false
	}
	e.mu.Lock()
	if e.armed || (!e.lastDone.IsZero() && e.cfg.Cooldown > 0 && time.Since(e.lastDone) < e.cfg.Cooldown) {
		e.mu.Unlock()
		e.suppressedTotal.Inc()
		return "", false
	}
	e.seq++
	c := &Capture{
		ID:     fmt.Sprintf("prof-%04d", e.seq),
		Reason: reason, RequestID: requestID,
		Start: time.Now(), Duration: e.cfg.CPUDuration,
	}
	e.insertLocked(c)
	e.armed = true
	e.mu.Unlock()
	obs.Default().Counter("pdwd_profile_captures_total", "reason", reason).Inc()
	go e.capture(c)
	return c.ID, true
}

// insertLocked pushes c into the bounded ring; the oldest bundle is
// evicted once the ring is full. Caller holds e.mu.
func (e *Engine) insertLocked(c *Capture) {
	if len(e.ring) < e.cfg.Depth {
		e.ring = append(e.ring, c)
		e.next = len(e.ring) % e.cfg.Depth
		return
	}
	e.ring[e.next] = c
	e.next = (e.next + 1) % e.cfg.Depth
}

// capture runs one armed capture to completion: the CPU window, then
// the goroutine and heap dumps, then the ring update that disarms the
// engine and starts the cooldown.
func (e *Engine) capture(c *Capture) {
	var cpu bytes.Buffer
	cpuErr := pprof.StartCPUProfile(&cpu)
	if cpuErr == nil {
		time.Sleep(e.cfg.CPUDuration)
		pprof.StopCPUProfile()
	}
	var goroutines, heap bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&goroutines, 0) // debug=0: gzipped protobuf
	}
	if p := pprof.Lookup("heap"); p != nil {
		_ = p.WriteTo(&heap, 0)
	}

	e.mu.Lock()
	if cpuErr != nil {
		c.Err = cpuErr.Error()
	} else {
		c.CPU = cpu.Bytes()
	}
	c.Goroutine = goroutines.Bytes()
	c.Heap = heap.Bytes()
	c.Done = true
	e.armed = false
	e.lastDone = time.Now()
	e.mu.Unlock()
}

// Get returns the capture with the given id. The byte slices are
// shared, never mutated after Done, and nil while the bundle is
// pending.
func (e *Engine) Get(id string) (*Capture, bool) {
	if e == nil {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.ring {
		if c.ID == id {
			cp := *c
			return &cp, true
		}
	}
	return nil, false
}

// Captures returns a metadata snapshot of the ring, newest first.
func (e *Engine) Captures() []Capture {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Capture, 0, len(e.ring))
	for i := 0; i < len(e.ring); i++ {
		out = append(out, *e.ring[(e.next-1-i+len(e.ring))%len(e.ring)])
	}
	return out
}
