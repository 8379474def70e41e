// Package dawo implements the comparison baseline of Sec. IV: the
// delay-aware wash optimization method of [10]. Following the paper's
// description:
//
//   - wash operations are introduced from the positions of contaminated
//     spots, conservatively (no Type-2 same-fluid skip: any foreign
//     residue on a reused cell is washed);
//   - each contaminated region is washed by its own independent path
//     computed with breadth-first search (no resource sharing between
//     wash operations, no global optimization);
//   - wash operations are assigned to time intervals with a sweep-line
//     style earliest-fit pass, delaying subsequent tasks when no free
//     interval exists.
//
// Like PDW, DAWO runs to a contamination-free fixpoint, so its output
// schedules pass the same correctness oracle (contam.Verify).
package dawo

import (
	"context"
	"fmt"
	"math"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/washpath"
)

// Options tunes the baseline.
type Options struct {
	// MaxRounds caps wash-insertion fixpoint rounds (default 60).
	MaxRounds int
	// Budget bounds the run; only Budget.Total applies (DAWO solves no
	// inner ILPs). Its expiry degrades gracefully: the remaining
	// fixpoint rounds (pure BFS work) complete and the clean schedule is
	// returned with Stats.Canceled set.
	Budget solve.Budget
}

// Result is the baseline's output.
type Result struct {
	// Schedule is the rebuilt execution procedure with washes.
	Schedule *schedule.Schedule
	// Washes are the inserted wash operations.
	Washes []replan.WashSpec
	// Rounds is the number of fixpoint rounds used.
	Rounds int
	// Stats is the structured solve telemetry (phase wall times and the
	// conservative policy's skip counts; DAWO runs no ILPs).
	Stats *solve.Stats
}

// policy is DAWO's conservative contamination judgement: residue of any
// foreign task counts, even of the same fluid type.
var policy = contam.Policy{IgnoreFluidTypes: true}

// OptimizeContext inserts washes into the base (wash-free) schedule
// under ctx. DAWO's fixpoint rounds are pure BFS and sweep work — there
// is no partial incumbent a caller could use (an unconverged schedule
// is still contaminated) — so a canceled ctx or an expired Budget.Total
// does not abort: the remaining rounds complete (cheaply) and the clean
// schedule is returned with Stats.Canceled set. A base that is already
// clean is returned as given.
func OptimizeContext(ctx context.Context, base *schedule.Schedule, opts Options) (*Result, error) {
	ctx, stop := opts.Budget.Context(ctx)
	defer stop()
	defer func() { solve.ObserveOverrun(ctx) }()
	ctx, span := obs.Start(ctx, "dawo.optimize", obs.A("tasks", len(base.Tasks())))
	defer span.End()
	stats := &solve.Stats{}
	// Mirror phase transitions and cancellation into the live progress
	// view when the root caller attached one to the context.
	prog := solve.ProgressFromContext(ctx)
	stats.BindProgress(prog)
	cp := solve.NewCheckpoint(ctx)
	ctx, endFix := stats.StartPhaseContext(ctx, "wash-insertion")

	round := 0
	ins, err := replan.Fixpoint{
		Policy:    policy,
		MaxRounds: opts.MaxRounds,
		Round: func(ctx context.Context, cur *schedule.Schedule, groups []contam.Group) ([]replan.WashSpec, error) {
			// DAWO solves no ILPs; the fixpoint round is its unit of live
			// progress (one label store per round, rounds are few).
			round++
			prog.SetModel(fmt.Sprintf("bfs round %d", round))
			// No merging: each contaminated region gets its own wash (the
			// baseline's lack of resource sharing).
			specs, err := CoverWashes(ctx, cur, groups, func(g contam.Group) []string { return g.Culprits })
			if err != nil {
				return nil, fmt.Errorf("dawo: %w", err)
			}
			return specs, nil
		},
	}.Run(ctx, &cp, base)
	if err != nil {
		return nil, err
	}
	if err := ins.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("dawo: final schedule invalid: %w", err)
	}
	endFix()
	stats.SetSkips(ins.SkipNames())
	if cp.Err() != nil {
		stats.MarkCanceled()
	}
	if span != nil {
		span.SetAttr("rounds", ins.Rounds)
		span.SetAttr("washes", len(ins.Washes))
	}
	return &Result{Schedule: ins.Schedule, Washes: ins.Washes, Rounds: ins.Rounds, Stats: stats}, nil
}

// CoverWashes gives each demand group its own BFS wash paths: one wash
// per path of the group's cover, ordered after culprits(g) and before
// the group's users.
func CoverWashes(ctx context.Context, cur *schedule.Schedule, groups []contam.Group,
	culprits func(contam.Group) []string) ([]replan.WashSpec, error) {
	var specs []replan.WashSpec
	for _, g := range groups {
		plans, coveredSets, err := washpath.BuildCoverContext(ctx, cur.Chip, g.Targets, washpath.Options{})
		if err != nil {
			return nil, fmt.Errorf("wash path for %v: %w", g.Targets, err)
		}
		for i, plan := range plans {
			specs = append(specs, replan.WashSpec{
				Path:     plan.Path,
				Targets:  coveredSets[i],
				Duration: WashDuration(cur, plan.Path.Len()),
				Culprits: culprits(g),
				Before:   g.Before,
			})
		}
	}
	return specs, nil
}

// WashDuration computes t(w) = L(l_w)/v_f + t_d (Eq. 17) rounded up to
// whole seconds, at least 1 s.
func WashDuration(s *schedule.Schedule, pathCells int) int {
	c := s.Chip
	secs := 0.0
	if c.FlowVelocityMMs > 0 {
		secs = c.CellLengthOf(pathCells) / c.FlowVelocityMMs
	}
	d := int(math.Ceil(secs + c.DissolutionS))
	if d < 1 {
		d = 1
	}
	return d
}
