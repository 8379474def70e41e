package replan

import (
	"context"
	"errors"
	"fmt"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// defaultMaxRounds caps the wash-insertion fixpoint when the caller
// sets no cap.
const defaultMaxRounds = 60

// Fixpoint is one wash-insertion method: PDW, DAWO and the demand-driven
// heuristic all insert washes until the contamination analysis finds
// nothing left, and differ only in how contamination is judged and in
// how one round's wash demands become washes.
type Fixpoint struct {
	// Policy is the method's contamination judgement.
	Policy contam.Policy
	// MaxRounds caps the rounds that insert washes (default 60).
	MaxRounds int
	// Round turns the demand groups the analysis of cur found into new
	// washes. Run names them (w1, w2, … in insertion order), so Round
	// leaves WashSpec.ID empty.
	Round func(ctx context.Context, cur *schedule.Schedule, groups []contam.Group) ([]WashSpec, error)
}

// Insertion is a converged fixpoint.
type Insertion struct {
	// Plan is the last round's rebuild of the base with every wash; nil
	// when the base was already clean and no round ran.
	Plan *Plan
	// Schedule is Plan's greedy schedule, which the last analysis found
	// clean, or the base itself when no round ran.
	Schedule *schedule.Schedule
	// Washes are the inserted washes in insertion order.
	Washes []WashSpec
	// Rounds counts the rounds that inserted washes.
	Rounds int
	// Skips are the first analysis's counts of contamination events
	// each skip rule excused from washing.
	Skips map[contam.SkipReason]int
}

// Run inserts washes into base until the analysis under f.Policy finds
// no outstanding demand; each round rebuilds the base with every wash
// so far and re-times it greedily. While cp is live each analysis is
// checkpointed, so a deadline expiring mid-analysis aborts it within
// one stride; the abort latches cp, and that analysis and every later
// one run in completion mode, because a partially washed schedule is
// no usable answer. Hitting the round cap is an error wrapping
// solve.ErrBudgetExceeded.
func (f Fixpoint) Run(ctx context.Context, cp *solve.Checkpoint, base *schedule.Schedule) (*Insertion, error) {
	maxRounds := f.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	ins := &Insertion{Schedule: base}
	for ; ins.Rounds < maxRounds; ins.Rounds++ {
		an, err := f.analyze(ctx, cp, ins.Schedule)
		if err != nil {
			return nil, err
		}
		if ins.Rounds == 0 {
			ins.Skips = an.Skips
		}
		if len(an.Requirements) == 0 {
			return ins, nil
		}
		specs, err := f.Round(ctx, ins.Schedule, contam.GroupRequirements(an.Requirements))
		if err != nil {
			return nil, err
		}
		for i := range specs {
			specs[i].ID = fmt.Sprintf("w%d", len(ins.Washes)+i+1)
		}
		ins.Washes = append(ins.Washes, specs...)
		if ins.Plan, err = Build(base, ins.Washes); err != nil {
			return nil, err
		}
		if ins.Schedule, err = ins.Plan.Greedy(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("replan: wash insertion did not converge in %d rounds: %w",
		maxRounds, solve.ErrBudgetExceeded)
}

func (f Fixpoint) analyze(ctx context.Context, cp *solve.Checkpoint, s *schedule.Schedule) (*contam.Analysis, error) {
	if !cp.Canceled() {
		an, err := contam.AnalyzeWithPolicyContext(ctx, s, f.Policy)
		if err == nil || !errors.Is(err, solve.ErrBudgetExceeded) {
			return an, err
		}
		cp.Err() // latch the cancellation the aborted analysis observed
	}
	return contam.AnalyzeWithPolicy(s, f.Policy)
}

// SkipNames returns Skips keyed by rule name, the form solve.Stats
// carries.
func (ins *Insertion) SkipNames() map[string]int {
	out := make(map[string]int, len(ins.Skips))
	for r, n := range ins.Skips {
		out[r.String()] = n
	}
	return out
}
