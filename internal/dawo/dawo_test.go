package dawo

import (
	"context"
	"testing"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/synth"
)

// fixture synthesizes an assay with guaranteed cross-contamination: a
// chain of distinct-fluid mixes over shared channels.
func fixture(t *testing.T) *synth.Result {
	t.Helper()
	a := assay.New("dawo-fx")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 2, Output: "f2",
		Reagents: []assay.FluidType{"r3"}})
	a.MustAddOp(&assay.Operation{ID: "o3", Kind: assay.Mix, Duration: 2, Output: "f3"})
	a.MustAddEdge("o1", "o3")
	a.MustAddEdge("o2", "o3")
	res, err := synth.Synthesize(a, synth.Config{
		Devices: []synth.DeviceSpec{{Kind: grid.Mixer, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOptimizeReachesCleanFixpoint(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Schedule.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// Oracle: no outstanding contamination under DAWO's own conservative
	// policy (and therefore under PDW's laxer one).
	an, err := contam.AnalyzeWithPolicy(out.Schedule, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) != 0 {
		t.Fatalf("outstanding requirements: %v", an.Requirements)
	}
	if err := contam.Verify(out.Schedule); err != nil {
		t.Fatalf("PDW-policy verify: %v", err)
	}
}

func TestOptimizeInsertsWashes(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Washes) == 0 {
		t.Fatal("expected washes on a contaminated assay")
	}
	n := len(out.Schedule.TasksOf(schedule.Wash))
	if n != len(out.Washes) {
		t.Fatalf("schedule has %d wash tasks, result lists %d", n, len(out.Washes))
	}
	for _, w := range out.Schedule.TasksOf(schedule.Wash) {
		if err := w.Path.ValidateComplete(out.Schedule.Chip); err != nil {
			t.Errorf("wash %s: %v", w.ID, err)
		}
	}
}

func TestMakespanNotBelowBase(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schedule.Makespan() < res.Schedule.Makespan() {
		t.Fatalf("washes cannot speed the assay up: %d < %d",
			out.Schedule.Makespan(), res.Schedule.Makespan())
	}
}

func TestNoWashesNeededOnSameFluid(t *testing.T) {
	// Single op, single reagent: nothing is reused by a foreign task.
	a := assay.New("clean")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1"}})
	res, err := synth.Synthesize(a, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Washes) != 0 {
		t.Fatalf("clean assay got %d washes", len(out.Washes))
	}
	if out.Schedule.Makespan() != res.Schedule.Makespan() {
		t.Fatal("wash-free result should match base makespan")
	}
}

func TestWashDuration(t *testing.T) {
	res := fixture(t)
	s := res.Schedule
	// cell 1 mm, v_f 10 mm/s, t_d 2 s: 20 cells -> 2 + 2 = 4 s.
	if d := WashDuration(s, 20); d != 4 {
		t.Errorf("WashDuration(20) = %d want 4", d)
	}
	if d := WashDuration(s, 1); d != 3 {
		t.Errorf("WashDuration(1) = %d want 3 (ceil(0.1+2))", d)
	}
	s.Chip.FlowVelocityMMs = 0
	if d := WashDuration(s, 5); d != 2 {
		t.Errorf("WashDuration with v=0 = %d want 2", d)
	}
	s.Chip.FlowVelocityMMs = 10
}

func TestDeterministic(t *testing.T) {
	res := fixture(t)
	o1, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o1.Schedule.Makespan() != o2.Schedule.Makespan() || len(o1.Washes) != len(o2.Washes) {
		t.Fatal("DAWO is nondeterministic")
	}
}

func TestConservativePolicyDemandsMore(t *testing.T) {
	res := fixture(t)
	lax, err := contam.Analyze(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := contam.AnalyzeWithPolicy(res.Schedule, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons.Requirements) < len(lax.Requirements) {
		t.Fatalf("conservative policy yields fewer requirements (%d < %d)",
			len(cons.Requirements), len(lax.Requirements))
	}
}

func TestMaxRoundsSurfaced(t *testing.T) {
	res := fixture(t)
	// One round is never enough on this fixture (requirements remain
	// after the first insertion because removals re-contaminate).
	_, err := OptimizeContext(context.Background(), res.Schedule, Options{MaxRounds: 1})
	if err == nil {
		t.Skip("fixture converged in one round; nothing to assert")
	}
}
