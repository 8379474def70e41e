// Package solve holds the shared vocabulary of the solver pipeline: the
// Budget that bounds a run, the sentinel errors every layer reports
// through errors.Is, the Stats trace that records what the solvers
// actually did (phase wall times, search nodes, incumbent trajectory,
// wash-path model sizes, and the Type 1/2/3 wash-elimination counts of
// Sec. II-A), and the Tally through which the exact searches count.
//
// The package is a leaf: it imports only the standard library and the
// internal/obs observability leaf, so every solver layer (washpath,
// pdw, dawo, synth, harness, and the lp and milp test oracles) and the
// public pkg/pathdriver surface can depend on it without cycles.
package solve

import (
	"context"
	"errors"
	"time"
)

// Sentinel errors of the solve stack. Layers wrap these with %w so
// callers can classify failures with errors.Is instead of string
// matching.
var (
	// ErrInfeasible marks a model or input with no feasible solution
	// (an unsatisfiable ILP, an incumbent violating its constraints, a
	// device library that cannot serve the assay).
	ErrInfeasible = errors.New("infeasible")
	// ErrBudgetExceeded marks a run aborted because a time or round
	// budget expired before any feasible incumbent existed. Solvers
	// holding an incumbent degrade to it instead of returning this.
	ErrBudgetExceeded = errors.New("budget exceeded")
	// ErrInvalidAssay marks a malformed protocol or synthesis request
	// (cyclic sequencing graph, empty operation set, bad device spec).
	ErrInvalidAssay = errors.New("invalid assay")
)

// Budget bounds a solve end to end: one total wall-clock deadline for
// the whole pipeline plus per-phase caps for its inner ILPs. It replaces
// the scattered per-package TimeLimit fields; the zero value means
// "package defaults, no total deadline".
type Budget struct {
	// Total bounds the whole run. The pipeline derives a context
	// deadline from it; on expiry every phase degrades to its best
	// feasible incumbent. 0 means unbounded.
	Total time.Duration
	// PerPath caps each wash-path search (0: package default, 3 s).
	PerPath time.Duration
	// Window caps the time-window search (0: package default, 10 s).
	Window time.Duration
}

// Context derives a context carrying the Total deadline. When Total is
// zero, ctx is returned unchanged with a no-op cancel.
func (b Budget) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	if b.Total <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, time.Now().Add(b.Total))
}

// Or returns d when it is positive, else the fallback chain: the first
// positive of fallbacks, else zero.
func Or(d time.Duration, fallbacks ...time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	for _, f := range fallbacks {
		if f > 0 {
			return f
		}
	}
	return 0
}
