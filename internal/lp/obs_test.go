package lp_test

import (
	"testing"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/milp"
	"pathdriverwash/internal/obs"
)

// lp writes no metrics of its own: a relaxation's pivots reach
// pdw_lp_simplex_pivots_total through the branch & bound search that
// ran it, counted once when that search returns. These tests live in
// the external package because milp imports lp.

// asSearch wraps the dense LP as a MILP with no integer marks, so a
// search of it explores exactly one node: the root relaxation.
func asSearch() *milp.Problem {
	p := lp.PivotHeavyProblem(30)
	return &milp.Problem{LP: *p, Integer: make([]bool, p.NumVars)}
}

func TestObsCountersIncrease(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	nodes0 := obs.Default().Counter("pdw_bb_nodes_total").Value()
	pivots0 := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value()

	direct, err := lp.Solve(lp.PivotHeavyProblem(30))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Iterations == 0 {
		t.Fatal("solve took no pivots; fixture too easy")
	}
	res, err := milp.Solve(asSearch(), milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 1 || res.SimplexIters != direct.Iterations {
		t.Fatalf("search = %d nodes, %d pivots; want 1 node, %d pivots",
			res.Nodes, res.SimplexIters, direct.Iterations)
	}
	if got := obs.Default().Counter("pdw_bb_nodes_total").Value() - nodes0; got != 1 {
		t.Errorf("relaxation counter moved by %d, want 1", got)
	}
	gotPivots := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value() - pivots0
	if gotPivots != int64(direct.Iterations) {
		t.Errorf("pivot counter moved by %d, want %d", gotPivots, direct.Iterations)
	}
}

func TestObsDisabledCountersStill(t *testing.T) {
	obs.Disable()
	pivots0 := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value()
	if _, err := lp.Solve(lp.PivotHeavyProblem(30)); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value(); got != pivots0 {
		t.Errorf("bare lp solve moved the pivot counter by %d", got-pivots0)
	}
	// The span flag does not gate metrics: with it off, the search
	// still counts its pivots at exit.
	res, err := milp.Solve(asSearch(), milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("pdw_lp_simplex_pivots_total").Value() - pivots0; got != int64(res.SimplexIters) {
		t.Errorf("disabled search moved the pivot counter by %d, want %d", got, res.SimplexIters)
	}
}
