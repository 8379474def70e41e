package replan

import (
	"context"
	"errors"
	"testing"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/washpath"
)

// TestFixpointRoundCap gives the fixpoint a round that inserts nothing,
// so every analysis finds the same demands: it must analyse exactly
// MaxRounds times and then fail with ErrBudgetExceeded.
func TestFixpointRoundCap(t *testing.T) {
	res, an := fixture(t)
	if len(an.Requirements) == 0 {
		t.Fatal("fixture has no wash demands")
	}
	for _, maxRounds := range []int{1, 3} {
		calls := 0
		f := Fixpoint{
			MaxRounds: maxRounds,
			Round: func(context.Context, *schedule.Schedule, []contam.Group) ([]WashSpec, error) {
				calls++
				return nil, nil
			},
		}
		cp := solve.NewCheckpoint(context.Background())
		ins, err := f.Run(context.Background(), &cp, res.Schedule)
		if !errors.Is(err, solve.ErrBudgetExceeded) {
			t.Fatalf("MaxRounds %d: err = %v, want ErrBudgetExceeded", maxRounds, err)
		}
		if ins != nil {
			t.Errorf("MaxRounds %d: result returned with the cap error", maxRounds)
		}
		if calls != maxRounds {
			t.Errorf("MaxRounds %d: %d rounds analysed", maxRounds, calls)
		}
	}
}

// TestFixpointCleanBaseRunsNoRound washes the fixture to its fixpoint,
// then runs the fixpoint again on the washed schedule: a clean base
// comes back as given, with no round run and no plan built.
func TestFixpointCleanBaseRunsNoRound(t *testing.T) {
	res, _ := fixture(t)
	ctx := context.Background()
	cp := solve.NewCheckpoint(ctx)
	washed, err := Fixpoint{Round: bfsWashes}.Run(ctx, &cp, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if washed.Rounds == 0 || len(washed.Washes) == 0 || washed.Washes[0].ID != "w1" {
		t.Fatalf("fixture washed in %d rounds with washes %v", washed.Rounds, washed.Washes)
	}
	f := Fixpoint{
		Round: func(context.Context, *schedule.Schedule, []contam.Group) ([]WashSpec, error) {
			t.Fatal("round run on a clean base")
			return nil, nil
		},
	}
	again, err := f.Run(ctx, &cp, washed.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rounds != 0 || again.Plan != nil || again.Washes != nil || again.Schedule != washed.Schedule {
		t.Errorf("clean base: rounds %d, plan built %v, washes %v, schedule rebuilt %v",
			again.Rounds, again.Plan != nil, again.Washes, again.Schedule != washed.Schedule)
	}
	if again.Skips == nil {
		t.Error("first analysis's skip counts not kept")
	}
}

// bfsWashes washes each demand group along its BFS cover paths.
func bfsWashes(ctx context.Context, cur *schedule.Schedule, groups []contam.Group) ([]WashSpec, error) {
	var specs []WashSpec
	for _, g := range groups {
		plans, covered, err := washpath.BuildCoverContext(ctx, cur.Chip, g.Targets, washpath.Options{})
		if err != nil {
			return nil, err
		}
		for i, p := range plans {
			specs = append(specs, WashSpec{Path: p.Path, Targets: covered[i], Duration: 2,
				Culprits: g.Culprits, Before: g.Before})
		}
	}
	return specs, nil
}
