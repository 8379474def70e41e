package solve

import (
	"context"
	"time"

	"pathdriverwash/internal/obs"
)

// CheckpointStride is the default cancellation-poll cadence: one
// ctx.Err() poll per 64 iterations, and the nodes between a Tally's
// Progress publications. At typical hot-loop iteration costs (a BFS
// probe, a contamination event comparison, a pairwise swap) this keeps
// the poll overhead unmeasurable while bounding the distance between
// deadline expiry and loop exit to well under a millisecond.
const CheckpointStride = 64

// Checkpoint is the amortized cancellation probe of the solver hot
// loops. It is a plain value — embed it in a loop frame or pass a
// pointer down a call chain — and costs one counter increment per
// Check, with ctx.Err() polled once per stride. Once cancellation is
// observed the error latches, so every later Check returns it without
// touching the context again.
//
// Check returns the bare context error (context.Canceled or
// context.DeadlineExceeded); callers wrap it with their own sentinel
// (solve.ErrBudgetExceeded) at the layer boundary. A nil receiver and
// a nil context are both safe and never report cancellation, so
// context-free entry points can share the checkpointed code paths.
type Checkpoint struct {
	ctx    context.Context
	stride uint32
	n      uint32
	err    error
}

// NewCheckpoint returns a checkpoint over ctx at the default stride.
func NewCheckpoint(ctx context.Context) Checkpoint {
	return NewCheckpointStride(ctx, CheckpointStride)
}

// NewCheckpointStride returns a checkpoint polling ctx.Err() once per
// stride Check calls. The very first Check polls immediately, so an
// already-done context is observed before any loop work. Strides below
// 1 are raised to 1 (poll on every Check).
func NewCheckpointStride(ctx context.Context, stride int) Checkpoint {
	if stride < 1 {
		stride = 1
	}
	return Checkpoint{ctx: ctx, stride: uint32(stride), n: uint32(stride - 1)}
}

// Check counts one loop iteration and, once per stride, polls the
// context. It returns nil while the run is live and the latched
// context error once the deadline expired or the run was canceled.
func (c *Checkpoint) Check() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	if c.n++; c.n < c.stride {
		return nil
	}
	c.n = 0
	c.err = c.ctx.Err()
	return c.err
}

// Err polls the context immediately, bypassing the stride, and latches
// the result. Loop headers that run rarely but do expensive work per
// iteration (a fixpoint round, an ILP cut round) use Err instead of
// Check so every iteration observes cancellation.
func (c *Checkpoint) Err() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	if c.err == nil {
		c.err = c.ctx.Err()
	}
	return c.err
}

// Canceled reports whether an earlier Check or Err observed
// cancellation. It never polls the context, so it is free to call on
// every iteration of a loop that degrades (rather than aborts) once
// the budget expires.
func (c *Checkpoint) Canceled() bool { return c != nil && c.err != nil }

// overrunHist records how far past its context deadline each solve
// returned. The handle is resolved once at package load; a solve that
// returns in time pays one Deadline() call.
var overrunHist = obs.Default().Histogram("pdw_deadline_overrun_seconds",
	[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})

// ObserveOverrun measures how far past ctx's deadline the caller is
// returning and records it in the pdw_deadline_overrun_seconds
// histogram. It returns the overrun (zero when ctx has no deadline or
// the deadline has not passed) so pipeline exits can also log it. Call
// it at every solver return path that may follow a deadline expiry —
// the histogram is the production evidence that the checkpoint
// granularity contract (DESIGN.md) holds.
func ObserveOverrun(ctx context.Context) time.Duration {
	if ctx == nil {
		return 0
	}
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	over := time.Since(d)
	if over <= 0 {
		return 0
	}
	overrunHist.Observe(over.Seconds())
	return over
}
