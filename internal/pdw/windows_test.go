package pdw

import (
	"context"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

func TestCompressBaseNeverSlower(t *testing.T) {
	res := fixture(t)
	ref, err := CompressBase(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Makespan() > res.Schedule.Makespan() {
		t.Fatalf("compressed base %d slower than greedy %d",
			ref.Makespan(), res.Schedule.Makespan())
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("compressed base invalid: %v", err)
	}
}

// TestCompressBaseMatchesWindowMILP checks the reference against the
// solver it replaced: on a wash-free plan the window MILP has no free
// pairs, and it must prove optimal the same makespan.
func TestCompressBaseMatchesWindowMILP(t *testing.T) {
	names := []string{"fixture", "PCR", "Kinase act-1", "Synthetic1"}
	bases := []*schedule.Schedule{fixture(t).Schedule}
	for _, name := range names[1:] {
		b, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := b.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, syn.Schedule)
	}
	for i, base := range bases {
		ref, err := CompressBase(base)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		plan, err := replan.Build(base, nil)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := plan.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		milpRef, optimal, err := optimizeWindows(context.Background(), plan, greedy, time.Minute, nil)
		if err != nil {
			t.Fatalf("%s: window MILP: %v", names[i], err)
		}
		if !optimal {
			t.Fatalf("%s: window MILP did not prove optimality", names[i])
		}
		if milpRef.Makespan() != ref.Makespan() {
			t.Errorf("%s: reference makespan %d, window MILP optimum %d",
				names[i], ref.Makespan(), milpRef.Makespan())
		}
	}
}

func TestEarliestStartCheckCatchesDelay(t *testing.T) {
	plan, err := replan.Build(fixture(t).Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEarliestStarts(plan, greedy); err != nil {
		t.Fatalf("greedy schedule rejected: %v", err)
	}
	tasks := greedy.SortedByStart()
	late := tasks[len(tasks)/2]
	late.Start++
	late.End++
	err = checkEarliestStarts(plan, greedy)
	if err == nil || !strings.Contains(err.Error(), late.ID) {
		t.Fatalf("delaying %s: err = %v, want it named", late.ID, err)
	}
}

func TestOptimizeWindowsMatchesGreedyOrBetter(t *testing.T) {
	res := fixture(t)
	// Run PDW's wash discovery only (heuristic windows), then compare
	// the MILP result on the same wash set.
	out, err := Optimize(res.Schedule, Options{
		HeuristicWindows: true,
		Budget:           solve.Budget{PerPath: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := replan.Build(res.Schedule, out.Washes)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	optimized, _, err := optimizeWindows(context.Background(), plan, greedy, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if optimized.Makespan() > greedy.Makespan() {
		t.Fatalf("MILP %d worse than its incumbent %d",
			optimized.Makespan(), greedy.Makespan())
	}
	if err := optimized.Validate(); err != nil {
		t.Fatalf("MILP schedule invalid: %v", err)
	}
	if err := contam.Verify(optimized); err != nil {
		t.Fatalf("MILP schedule contaminated: %v", err)
	}
}

func TestHazardPair(t *testing.T) {
	wash := &schedule.Task{ID: "w", Kind: schedule.Wash,
		WashTargets: []geom.Point{geom.Pt(2, 2), geom.Pt(3, 2)}}
	contaminator := &schedule.Task{ID: "c", Kind: schedule.Transport,
		ContamCells: []geom.Point{geom.Pt(3, 2)}}
	user := &schedule.Task{ID: "u", Kind: schedule.Transport,
		SensitiveCells: []geom.Point{geom.Pt(2, 2)}}
	unrelated := &schedule.Task{ID: "x", Kind: schedule.Transport,
		ContamCells:    []geom.Point{geom.Pt(9, 9)},
		SensitiveCells: []geom.Point{geom.Pt(8, 8)}}
	otherWash := &schedule.Task{ID: "w2", Kind: schedule.Wash,
		WashTargets: []geom.Point{geom.Pt(2, 2)}}

	if !hazardPair(wash, contaminator) || !hazardPair(contaminator, wash) {
		t.Error("wash vs contaminator on target cell must be a hazard")
	}
	if !hazardPair(wash, user) {
		t.Error("wash vs sensitive user on target cell must be a hazard")
	}
	if hazardPair(wash, unrelated) {
		t.Error("disjoint cells are not a hazard")
	}
	if hazardPair(wash, otherWash) {
		t.Error("two washes are never a hazard")
	}
	if hazardPair(contaminator, user) {
		t.Error("pairs without a wash are not classified here")
	}
}

func TestOptimizeWindowsRejectsEmptyPlan(t *testing.T) {
	c := grid.NewChip("empty", 4, 4)
	if _, err := c.AddPort("in", grid.FlowPort, geom.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPort("out", grid.WastePort, geom.Pt(3, 3)); err != nil {
		t.Fatal(err)
	}
	s := schedule.New(c, nil)
	_ = s
	// An empty greedy schedule has makespan 0; optimizeWindows must
	// refuse rather than divide the horizon.
	plan := &replan.Plan{}
	if _, _, err := optimizeWindows(context.Background(), plan, schedule.New(c, nil), time.Second, nil); err == nil {
		t.Fatal("expected error for empty plan")
	}
}
