package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"pathdriverwash/internal/obs"
)

// tracer keeps bench-side spans in memory and writes them as Chrome
// trace JSON when the run ends. The system's own obs layer stays
// disabled: every span here is recorded around a call from the
// benchmark's code. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []obs.SpanData
	next  uint64
	cost  time.Duration // time spent recording, for trace.overhead_frac
}

// reserve hands out an id for a span whose end is recorded later with
// finish, so children can name it as their parent while it is open.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// span records a finished span under parent (0: none) in root's tree
// (0: its own).
func (t *tracer) span(name string, parent, root uint64, start time.Time, d time.Duration, attrs ...obs.Attr) {
	t.record(t.reserve(), name, parent, root, start, d, attrs)
}

// finish records a span under an id from reserve, ending now.
func (t *tracer) finish(id uint64, name string, parent, root uint64, start time.Time, attrs ...obs.Attr) {
	t.record(id, name, parent, root, start, time.Since(start), attrs)
}

func (t *tracer) record(id uint64, name string, parent, root uint64, start time.Time, d time.Duration, attrs []obs.Attr) {
	if t == nil {
		return
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if root == 0 {
		root = id
	}
	t.spans = append(t.spans, obs.SpanData{
		Name: name, ID: id, Parent: parent, Root: root,
		Start: start, Duration: d, Attrs: attrs,
	})
	t.cost += time.Since(t0)
}

// overhead is the time spent recording spans.
func (t *tracer) overhead() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// write dumps the spans to path as a Chrome trace-event array.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	err = obs.WriteChromeTrace(f, t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
