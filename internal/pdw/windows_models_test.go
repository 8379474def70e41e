package pdw_test

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// windowCase is a window model PDW builds: the final plan of a run and
// its greedy schedule.
type windowCase struct {
	name   string
	plan   *replan.Plan
	greedy *schedule.Schedule
}

// windowCaseOf runs PDW's wash insertion on b under opts and returns
// the plan its window phase solves.
func windowCaseOf(t *testing.T, b *benchmarks.Benchmark, opts pdw.Options) windowCase {
	t.Helper()
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	opts.HeuristicWindows = true
	res, err := pdw.Optimize(syn.Schedule, opts)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	plan, err := replan.Build(syn.Schedule, res.Washes)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	greedy, err := plan.Greedy()
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return windowCase{b.Name, plan, greedy}
}

// solveWindows runs the window search on c, requires a proven optimum
// on a schedule that is valid and clean, and returns its makespan.
func solveWindows(t *testing.T, c windowCase) int {
	t.Helper()
	stats := &solve.Stats{}
	s, optimal, err := pdw.OptimizeWindows(context.Background(), c.plan, c.greedy, time.Minute, stats)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if !optimal {
		t.Fatalf("%s: window search did not close in a minute", c.name)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: window schedule invalid: %v", c.name, err)
	}
	if err := contam.Verify(s); err != nil {
		t.Fatalf("%s: window schedule not clean: %v", c.name, err)
	}
	m := stats.MILPs[0]
	t.Logf("%-18s %2d free pairs: greedy %3d → %3d in %v (%d nodes, %d pruned)",
		c.name, pdw.WindowFreePairs(c.plan, c.greedy), c.greedy.Makespan(), s.Makespan(),
		m.Wall.Round(time.Microsecond), m.Nodes, m.Pruned)
	return s.Makespan()
}

// exactSmallPool is the exact-small benchmark workload's input pool.
func exactSmallPool(t *testing.T) []*benchmarks.Benchmark {
	t.Helper()
	set, err := corpus.GenerateSweep(context.Background(), corpus.SweepConfig{Seed: 5, N: 8, MinOps: 6, MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestWindowsMatchMILPOnExactSmall checks the window search against
// both oracles on the models exact PDW builds for the exact-small
// pool: the MILP it replaced, which proves its optimum on each, and
// brute force over every order of the free pairs.
func TestWindowsMatchMILPOnExactSmall(t *testing.T) {
	exact := pdw.Options{Budget: solve.Budget{PerPath: 20 * time.Second}}
	for _, b := range exactSmallPool(t) {
		c := windowCaseOf(t, b, exact)
		got := solveWindows(t, c)
		ref, optimal, err := pdw.OptimizeWindowsMILP(context.Background(), c.plan, c.greedy, time.Minute)
		if err != nil {
			t.Fatalf("%s: window MILP: %v", c.name, err)
		}
		if !optimal {
			t.Fatalf("%s: window MILP did not prove optimality", c.name)
		}
		if ref.Makespan() != got {
			t.Errorf("%s: search optimum %d, MILP optimum %d", c.name, got, ref.Makespan())
		}
		if bf := pdw.BruteForceWindows(c.plan, c.greedy); bf != got {
			t.Errorf("%s: search optimum %d, brute force %d", c.name, got, bf)
		}
	}
}

// TestWindowsOnTableII solves the window models of every Table II
// benchmark (heuristic wash paths keep the models deterministic; PCR
// and Kinase act-1 also with exact paths), requires each result valid
// and clean, and checks it against brute force up to 12 free pairs.
func TestWindowsOnTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and solves all eight Table II benchmarks")
	}
	var cases []windowCase
	for _, b := range benchmarks.All() {
		c := windowCaseOf(t, b, pdw.Options{HeuristicPaths: true})
		c.name += " (heur)"
		cases = append(cases, c)
		if b.Name == "PCR" || b.Name == "Kinase act-1" {
			cases = append(cases, windowCaseOf(t, b, pdw.Options{}))
		}
	}
	for _, c := range cases {
		got := solveWindows(t, c)
		if pdw.WindowFreePairs(c.plan, c.greedy) > 12 {
			continue
		}
		if bf := pdw.BruteForceWindows(c.plan, c.greedy); bf != got {
			t.Errorf("%s: search optimum %d, brute force %d", c.name, got, bf)
		}
	}
}

// TestWindowSearchStress solves the hardest window model seen so far,
// the final plan of the overrun-diamond corpus draw (34 free pairs),
// well inside the default 10 s window cap.
func TestWindowSearchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs exact wash insertion on a reagent-dense draw")
	}
	b, err := corpus.GenerateContext(context.Background(), corpus.Params{Name: "overrun-diamond", Seed: 5, Ops: 10,
		Shape: corpus.Diamond, Density: 1, ReagentRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	solveWindows(t, windowCaseOf(t, b, pdw.Options{}))
}
