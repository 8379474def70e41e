package solve

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"pathdriverwash/internal/obs"
)

// Progress is the race-safe live view of an in-flight solve: the
// counters the exact searches publish (search nodes, pruned
// subproblems, incumbents) plus the current phase, search model, and
// incumbent/bound trajectory. Where Stats is the post-hoc record read
// after a solve returns, Progress is readable WHILE the solve runs —
// the /debug/solves registry (internal/obs) snapshots it concurrently
// with the searches.
//
// Every field is an atomic and every method is nil-safe, so
// publication sites cost one nil check when no progress view is
// attached and one uncontended atomic op when one is. The searches
// publish their counts through a Tally, once per CheckpointStride
// nodes and once at exit, keeping the instrumented path
// allocation-free; see DESIGN.md "Progress snapshot cost contract"
// and BenchmarkProgressOverhead in internal/washpath.
type Progress struct {
	start time.Time

	phase atomic.Pointer[string]
	model atomic.Pointer[string]

	nodes      atomic.Int64
	pruned     atomic.Int64
	incumbents atomic.Int64

	// bestObj and bound hold math.Float64bits values; the has* flags
	// distinguish "never published" from a published zero.
	bestObj  atomic.Uint64
	bound    atomic.Uint64
	hasObj   atomic.Bool
	hasBound atomic.Bool

	canceled atomic.Bool
}

// NewProgress returns a live progress view aged from now.
func NewProgress() *Progress {
	return &Progress{start: time.Now()}
}

// SetPhase publishes the pipeline phase currently running. Called by
// Stats.StartPhase when a progress view is bound, i.e. a handful of
// times per solve.
func (p *Progress) SetPhase(name string) {
	if p == nil {
		return
	}
	p.phase.Store(&name)
}

// SetModel publishes the model currently being solved (once per
// search, from washpath's path search and pdw's window search).
func (p *Progress) SetModel(label string) {
	if p == nil {
		return
	}
	p.model.Store(&label)
}

// AddNodes counts explored search nodes.
func (p *Progress) AddNodes(n int64) {
	if p == nil {
		return
	}
	p.nodes.Add(n)
}

// AddPruned counts subproblems discarded by bound.
func (p *Progress) AddPruned(n int64) {
	if p == nil {
		return
	}
	p.pruned.Add(n)
}

// Incumbent publishes a new best feasible objective.
func (p *Progress) Incumbent(obj float64) {
	if p == nil {
		return
	}
	p.incumbents.Add(1)
	if !math.IsInf(obj, 0) && !math.IsNaN(obj) {
		p.bestObj.Store(math.Float64bits(obj))
		p.hasObj.Store(true)
	}
}

// SetBound publishes the best proven lower bound of the running search.
// Non-finite bounds (the root node's -inf) are ignored so the snapshot
// stays JSON-encodable.
func (p *Progress) SetBound(b float64) {
	if p == nil {
		return
	}
	if math.IsInf(b, 0) || math.IsNaN(b) {
		return
	}
	p.bound.Store(math.Float64bits(b))
	p.hasBound.Store(true)
}

// MarkCanceled flags the solve as budget-expired (degrading to
// incumbents). Stats.MarkCanceled forwards here when a view is bound.
func (p *Progress) MarkCanceled() {
	if p == nil {
		return
	}
	p.canceled.Store(true)
}

// Snapshot captures the current state. Safe to call concurrently with
// the running solve; the counters are read individually, so a snapshot
// is not a single atomic cut across all of them — good enough for a
// monitoring view, never used for accounting.
func (p *Progress) Snapshot() obs.SolveSnapshot {
	if p == nil {
		return obs.SolveSnapshot{}
	}
	s := obs.SolveSnapshot{
		Nodes:      p.nodes.Load(),
		Pruned:     p.pruned.Load(),
		Incumbents: p.incumbents.Load(),
		Canceled:   p.canceled.Load(),
		Elapsed:    time.Since(p.start),
	}
	if ph := p.phase.Load(); ph != nil {
		s.Phase = *ph
	}
	if m := p.model.Load(); m != nil {
		s.Model = *m
	}
	if p.hasObj.Load() {
		obj := math.Float64frombits(p.bestObj.Load())
		s.BestObj = &obj
		if p.hasBound.Load() {
			bound := math.Float64frombits(p.bound.Load())
			s.Bound = &bound
			// Relative gap, clamped at zero: with the incumbent read
			// before the bound, a concurrent improvement can transiently
			// put the bound above the incumbent.
			gap := (obj - bound) / math.Max(1, math.Abs(obj))
			if gap < 0 {
				gap = 0
			}
			s.Gap = &gap
		}
	} else if p.hasBound.Load() {
		bound := math.Float64frombits(p.bound.Load())
		s.Bound = &bound
	}
	return s
}

// progressKey carries a *Progress in a context.
type progressKey struct{}

// WithProgress returns a context carrying p; the searches beneath
// (washpath's path search, pdw's window search) resolve it once per
// search via NewTally and publish into it.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, p)
}

// ProgressFromContext returns the live progress view carried by ctx,
// or nil. Resolved once at solver entry points — never inside a hot
// loop.
func ProgressFromContext(ctx context.Context) *Progress {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(progressKey{}).(*Progress)
	return p
}
