// Package demandwash implements the demand-driven wash heuristic the
// paper discusses as related work ([9], Minhass et al.): wash operations
// are postponed as long as possible, executing only immediately before
// the contaminated resource is reused. As the paper notes, this makes
// conflicts between washes and fluid transportation frequent — every
// wash sits on the critical path right in front of its user — "leading
// to serious delay in assay completion". The implementation shares
// DAWO's conservative contamination judgement and BFS paths; the only
// difference is the postponement: each wash additionally waits for all
// of its user's other inputs, so it runs back-to-back with the reuse.
//
// It exists as a second comparison point and as the subject of the
// postponement ablation bench.
package demandwash

import (
	"context"
	"fmt"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// Options tunes the heuristic.
type Options struct {
	// MaxRounds caps wash-insertion fixpoint rounds (default 60).
	MaxRounds int
	// Budget bounds the run; only Budget.Total applies (the heuristic
	// solves no inner ILPs). Expiry degrades gracefully: the remaining
	// fixpoint rounds complete and the clean schedule is returned with
	// Stats.Canceled set.
	Budget solve.Budget
}

// Result is the heuristic's output.
type Result struct {
	Schedule *schedule.Schedule
	Washes   []replan.WashSpec
	Rounds   int
	// Stats carries the Canceled flag when the budget expired mid-run.
	Stats *solve.Stats
}

var policy = contam.Policy{IgnoreFluidTypes: true}

// OptimizeContext inserts maximally postponed washes into the base
// schedule under ctx. Like DAWO, the fixpoint must reach a
// contamination-free schedule to return anything usable, so a canceled
// ctx or an expired Budget.Total does not abort: the remaining rounds
// complete (pure BFS work) and the clean schedule is returned with
// Stats.Canceled set.
func OptimizeContext(ctx context.Context, base *schedule.Schedule, opts Options) (*Result, error) {
	ctx, stop := opts.Budget.Context(ctx)
	defer stop()
	defer func() { solve.ObserveOverrun(ctx) }()
	cp := solve.NewCheckpoint(ctx)

	ins, err := replan.Fixpoint{
		Policy:    policy,
		MaxRounds: opts.MaxRounds,
		Round: func(ctx context.Context, cur *schedule.Schedule, groups []contam.Group) ([]replan.WashSpec, error) {
			specs, err := dawo.CoverWashes(ctx, cur, groups, func(g contam.Group) []string {
				return postponedCulprits(base, g)
			})
			if err != nil {
				return nil, fmt.Errorf("demandwash: %w", err)
			}
			return specs, nil
		},
	}.Run(ctx, &cp, base)
	if err != nil {
		return nil, err
	}
	if err := ins.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("demandwash: final schedule invalid: %w", err)
	}
	stats := &solve.Stats{}
	if cp.Err() != nil {
		stats.MarkCanceled()
	}
	return &Result{Schedule: ins.Schedule, Washes: ins.Washes, Rounds: ins.Rounds, Stats: stats}, nil
}

// postponedCulprits extends the group's culprits with every other
// predecessor of each user task, so the greedy placement can only slot
// the wash immediately before the reuse — the defining postponement of
// the demand-driven heuristic.
func postponedCulprits(base *schedule.Schedule, g contam.Group) []string {
	out := append([]string(nil), g.Culprits...)
	// A merged group may serve several users; a postponement gate must
	// finish before every one of them (base times), or ordering the
	// wash after it would contradict a wash-before-user edge.
	minUserStart := 1 << 30
	for _, u := range g.Before {
		if ut := base.Task(u); ut != nil && ut.Start < minUserStart {
			minUserStart = ut.Start
		}
	}
	add := func(id string) {
		if id == "" {
			return
		}
		gate := base.Task(id)
		if gate == nil || gate.End > minUserStart {
			return
		}
		for _, u := range g.Before {
			if id == u {
				return // never order a wash after its own user
			}
		}
		for _, c := range out {
			if c == id {
				return
			}
		}
		out = append(out, id)
	}
	for _, userID := range g.Before {
		user := base.Task(userID)
		if user == nil {
			continue
		}
		switch user.Kind {
		case schedule.Operation:
			// Wait for the op's transports and removals.
			for _, t := range base.Tasks() {
				if t.EdgeTo == user.OpID &&
					(t.Kind == schedule.Transport || t.Kind == schedule.Removal) {
					add(t.ID)
				}
			}
		case schedule.Transport:
			if user.EdgeFrom != "" {
				add("op-" + user.EdgeFrom) // wait for the producing op
			}
		}
	}
	return out
}
