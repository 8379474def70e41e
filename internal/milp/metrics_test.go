package milp

import (
	"testing"
	"time"

	"pathdriverwash/internal/obs"
)

// TestSearchCountedOnceAtExit pins the one-sink contract: a finished
// search moves each process total by exactly the counts in its Result,
// whether or not span recording is enabled.
func TestSearchCountedOnceAtExit(t *testing.T) {
	reg := obs.Default()
	totals := func() [6]int64 {
		return [6]int64{
			reg.Counter("pdw_bb_nodes_total").Value(),
			reg.Counter("pdw_bb_pruned_total").Value(),
			reg.Counter("pdw_bb_incumbents_total").Value(),
			reg.Counter("pdw_lp_simplex_pivots_total").Value(),
			reg.Counter("pdw_milp_solves_total", "status", "optimal").Value(),
			reg.Histogram("pdw_milp_wall_seconds", nil).Count(),
		}
	}
	for _, enabled := range []bool{false, true} {
		if enabled {
			obs.Enable()
		}
		before := totals()
		res, err := Solve(progressKnapsack(16), Options{TimeLimit: 20 * time.Second})
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal || res.Nodes == 0 || res.Pruned == 0 ||
			len(res.Incumbents) == 0 || res.SimplexIters == 0 {
			t.Fatalf("fixture too easy: %+v", res)
		}
		after := totals()
		want := [6]int64{int64(res.Nodes), int64(res.Pruned), int64(len(res.Incumbents)),
			int64(res.SimplexIters), 1, 1}
		for i, name := range []string{"nodes", "pruned", "incumbents", "pivots", "solves{optimal}", "wall count"} {
			if got := after[i] - before[i]; got != want[i] {
				t.Errorf("enabled=%v: %s total moved by %d, want %d", enabled, name, got, want[i])
			}
		}
	}
}
