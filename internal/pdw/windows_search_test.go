package pdw

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/solve"
)

// bruteForce returns the optimum of m over every order of its free
// pairs: per order, a topological longest path over the fixed and
// chosen arcs, skipping orders that close a cycle. It is the window
// search's independent oracle up to a dozen free pairs.
func (m *windowModel) bruteForce() int {
	n, k := len(m.dur), len(m.free)
	best := math.MaxInt
	for mask := 0; mask < 1<<k; mask++ {
		arcs := slices.Clone(m.arcs)
		for p, pr := range m.free {
			if mask>>p&1 == 1 {
				pr[0], pr[1] = pr[1], pr[0]
			}
			arcs = append(arcs, pr)
		}
		succ := make([][]int, n)
		indeg := make([]int, n)
		for _, a := range arcs {
			succ[a[0]] = append(succ[a[0]], a[1])
			indeg[a[1]]++
		}
		var order []int
		for i := range n {
			if indeg[i] == 0 {
				order = append(order, i)
			}
		}
		est := make([]int, n)
		for h := 0; h < len(order); h++ {
			x := order[h]
			for _, y := range succ[x] {
				est[y] = max(est[y], est[x]+m.dur[x])
				if indeg[y]--; indeg[y] == 0 {
					order = append(order, y)
				}
			}
		}
		if len(order) == n {
			best = min(best, m.makespan(est))
		}
	}
	return best
}

// checkWindowSchedule fails unless starts honours every arc of m and
// overlaps no free pair.
func checkWindowSchedule(t *testing.T, m *windowModel, starts []int) {
	t.Helper()
	for i, s := range starts {
		if s < 0 {
			t.Fatalf("task %d starts at %d", i, s)
		}
	}
	for _, a := range m.arcs {
		if starts[a[1]] < starts[a[0]]+m.dur[a[0]] {
			t.Fatalf("arc %d→%d violated: starts %d, %d, duration %d",
				a[0], a[1], starts[a[0]], starts[a[1]], m.dur[a[0]])
		}
	}
	for _, pr := range m.free {
		i, j := pr[0], pr[1]
		if starts[i] < starts[j]+m.dur[j] && starts[j] < starts[i]+m.dur[i] {
			t.Fatalf("free pair %d,%d overlaps: [%d,+%d) and [%d,+%d)",
				i, j, starts[i], m.dur[i], starts[j], m.dur[j])
		}
	}
}

// checkWindowSearch solves m and checks the result against brute
// force: the optimum matches, every leaf and the result are feasible,
// and the incumbent trajectory starts at greedy and strictly falls.
func checkWindowSearch(t *testing.T, m *windowModel) []int {
	t.Helper()
	var leaves []int
	starts, st := m.solve(context.Background(), func(starts []int) {
		checkWindowSchedule(t, m, starts)
		leaves = append(leaves, m.makespan(starts))
	})
	if !st.Optimal || st.Status != "optimal" {
		t.Fatalf("search without a deadline ended %s", st.Status)
	}
	checkWindowSchedule(t, m, starts)
	got := m.makespan(starts)
	if want := m.bruteForce(); got != want {
		t.Fatalf("search optimum %d, brute force %d (%d free pairs)", got, want, len(m.free))
	}
	traj := []int{m.makespan(m.greedy)}
	for _, inc := range st.Incumbents[1:] {
		traj = append(traj, int(inc.Obj))
	}
	if int(st.Incumbents[0].Obj) != traj[0] || !slices.Equal(traj[1:], leaves) {
		t.Fatalf("incumbents %v, greedy %d then leaves %v", st.Incumbents, traj[0], leaves)
	}
	for i := 1; i < len(traj); i++ {
		if traj[i] >= traj[i-1] {
			t.Fatalf("incumbent trajectory %v does not strictly fall", traj)
		}
	}
	return starts
}

// byteReader feeds a fuzz input byte by byte; past the end it reads 0.
type byteReader []byte

func (b *byteReader) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeWindowModel builds a window model of 2-10 tasks and up to 10
// free pairs from data. The fixed arcs run from lower to higher index,
// and the greedy incumbent runs the tasks back to back in index order,
// which honours every arc and every disjunction.
func decodeWindowModel(data []byte) *windowModel {
	r := byteReader(data)
	n := 2 + r.next()%9
	m := &windowModel{dur: make([]int, n), active: make([]bool, n), greedy: make([]int, n)}
	for i := range n {
		b := r.next()
		m.active[i] = b < 224
		if m.active[i] {
			m.dur[i] = 1 + b%6
		}
	}
	for i := range n {
		for j := i + 1; j < n; j++ {
			if r.next()%5 == 0 {
				m.arcs = append(m.arcs, [2]int{i, j})
			}
		}
	}
	for k := r.next() % 11; k > 0; k-- {
		pr := [2]int{r.next() % n, r.next() % n}
		rev := [2]int{pr[1], pr[0]}
		if pr[0] == pr[1] || !m.active[pr[0]] || !m.active[pr[1]] ||
			slices.Contains(m.free, pr) || slices.Contains(m.free, rev) {
			continue
		}
		m.free = append(m.free, pr)
	}
	t := 0
	for i := range n {
		m.greedy[i] = t
		t += m.dur[i]
	}
	return m
}

// FuzzWindowsMatchBruteForce checks the window search on random small
// models: the optimum equals brute force over every order, and every
// leaf schedule honours every arc and overlaps no free pair.
func FuzzWindowsMatchBruteForce(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWindowSearch(t, decodeWindowModel(data))
	})
}

// TestWindowSearchKnownOptimum pins a model solved by hand.
func TestWindowSearchKnownOptimum(t *testing.T) {
	// Tasks 0 and 1 (durations 4 and 2) may not overlap; 1 must precede
	// 2 (duration 3). Greedy runs them serially (makespan 9); the
	// optimum runs 1 first, then 0 and 2 in parallel: 2+4 = 6.
	m := &windowModel{
		dur:    []int{4, 2, 3},
		active: []bool{true, true, true},
		arcs:   [][2]int{{1, 2}},
		free:   [][2]int{{0, 1}},
		greedy: []int{0, 4, 6},
	}
	starts := checkWindowSearch(t, m)
	if got := m.makespan(starts); got != 6 {
		t.Fatalf("makespan %d, want 6", got)
	}
	if !slices.Equal(starts, []int{2, 0, 2}) {
		t.Fatalf("starts %v, want [2 0 2]", starts)
	}
}

// TestWindowSearchDoneContext requires a search under a done context
// to return the greedy incumbent unproven, without exploring a node.
func TestWindowSearchDoneContext(t *testing.T) {
	m := decodeWindowModel([]byte{4, 1, 2, 3, 4, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6, 0, 1, 1, 2, 2, 3, 3, 4, 0, 4, 1, 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	starts, st := m.solve(ctx, nil)
	if st.Optimal {
		t.Fatal("search under a done context claims optimality")
	}
	if !slices.Equal(starts, m.greedy) {
		t.Fatalf("starts %v, want the greedy incumbent %v", starts, m.greedy)
	}
	if st.Status != "feasible(limit)" || st.Nodes != 0 || len(st.Incumbents) != 1 {
		t.Fatalf("stat %+v, want feasible(limit) after 0 nodes with the greedy incumbent", st)
	}
	if opt := m.makespan(checkWindowSearch(t, m)); opt >= m.makespan(m.greedy) {
		t.Fatalf("model does not exercise the search: optimum %d, greedy %d", opt, m.makespan(m.greedy))
	}
}

// TestOptimizeWindowsDoneContextKeepsGreedy runs the phase on a real
// plan under a done context: the greedy schedule comes back, unproven.
func TestOptimizeWindowsDoneContextKeepsGreedy(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(res.Schedule, Options{HeuristicWindows: true})
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats := &solve.Stats{}
	got, optimal, err := optimizeWindows(ctx, plan, greedy, time.Minute, stats)
	if err != nil {
		t.Fatal(err)
	}
	if optimal {
		t.Fatal("done context: optimal = true")
	}
	for _, g := range greedy.Tasks() {
		if s := got.Task(g.ID); s.Start != g.Start || s.End != g.End {
			t.Fatalf("%s at [%d,%d), greedy [%d,%d)", g.ID, s.Start, s.End, g.Start, g.End)
		}
	}
	if len(stats.MILPs) != 1 || stats.MILPs[0].Label != windowLabel || stats.MILPs[0].Optimal {
		t.Fatalf("stats %+v, want one unproven %s record", stats.MILPs, windowLabel)
	}
}
