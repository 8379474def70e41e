package pdw

import (
	"context"
	"fmt"
	"time"

	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// windowLabel names the window search in solve.Stats, Progress and the
// phase list. It keeps the name of the MILP the search replaced: the
// model is the same, and the wire schema, BENCH phase breakdowns,
// /debug/solves and bench/pdwperf all key on it.
const windowLabel = "window-milp"

// optimizeWindows solves the time-window model of Eqs. (1)-(8),
// (16)-(22) exactly: task starts with fixed durations, precedence arcs
// from the plan's DAG, one disjunction per free wash pair, and
// makespan minimization. The search is anytime from the greedy
// schedule, capped by limit (when positive) and ctx; it reports
// whether the optimum was proven.
//
// Pairs whose flip could reorder contamination relative to the greedy
// analysis (a wash versus a task touching its target cells) are fixed to
// the greedy order; see DESIGN.md for the safety argument.
func optimizeWindows(ctx context.Context, plan *replan.Plan, greedy *schedule.Schedule, limit time.Duration, stats *solve.Stats) (*schedule.Schedule, bool, error) {
	if greedy.Makespan() <= 0 {
		return nil, false, fmt.Errorf("pdw: empty greedy schedule")
	}
	if limit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limit)
		defer cancel()
	}
	starts, stat := newWindowModel(plan, greedy).solve(ctx, nil)
	stats.AddMILP(stat)
	sched, err := plan.Apply(starts)
	if err != nil {
		return nil, false, err
	}
	return sched, stat.Optimal, nil
}

// windowModel is the time-window model over one plan. It is a plain
// value: the search needs no chip, so tests build models directly.
type windowModel struct {
	// dur are the task durations; active marks the tasks Eq. 22's
	// makespan ranges over (integrated removals are not).
	dur    []int
	active []bool
	// arcs are the fixed orders, a before b meaning start_b >= start_a
	// + dur[a]: the plan's precedence edges and the hazard pairs pinned
	// to the greedy order.
	arcs [][2]int
	// free are the disjunctions left to the search, in plan.FreePairs()
	// order: either order of the pair, never overlapping.
	free [][2]int
	// greedy are the greedy schedule's starts, the first incumbent.
	greedy []int
}

// newWindowModel builds the model of plan with greedy as incumbent.
func newWindowModel(plan *replan.Plan, greedy *schedule.Schedule) *windowModel {
	n := len(plan.Tasks)
	m := &windowModel{
		dur:    plan.Durations,
		active: make([]bool, n),
		arcs:   append([][2]int(nil), plan.Edges...),
		greedy: make([]int, n),
	}
	gEnd := make([]int, n)
	for i, t := range plan.Tasks {
		g := greedy.Task(t.ID)
		m.active[i] = t.Active()
		m.greedy[i], gEnd[i] = g.Start, g.End
	}
	for _, pr := range plan.FreePairs() {
		a, b := pr[0], pr[1]
		if !hazardPair(plan.Tasks[a], plan.Tasks[b]) {
			m.free = append(m.free, pr)
			continue
		}
		if gEnd[b] <= m.greedy[a] {
			a, b = b, a
		}
		m.arcs = append(m.arcs, [2]int{a, b})
	}
	return m
}

// makespan is Eq. 22 over starts: the latest end of an active task.
func (m *windowModel) makespan(starts []int) int {
	mk := 0
	for i, s := range starts {
		if m.active[i] {
			mk = max(mk, s+m.dur[i])
		}
	}
	return mk
}

// solve runs a depth-first branch and bound over the orders of the
// free pairs and returns the best starts found with the search's
// record. A node's bound is the longest path over the fixed arcs and
// the orders chosen on its branch, which is also the makespan of its
// earliest-start schedule; the node is a leaf once that schedule
// overlaps no free pair. Each node first fixes every open pair one of
// whose orders alone would lift the bound to the incumbent, then
// branches on the first overlapping pair, earlier-starting task first
// (on a tie, the lower index). Only strict improvements replace the
// incumbent, so the result is deterministic. A done ctx stops the
// search at its next node with the incumbent in hand. onLeaf, when
// set, sees every leaf schedule.
func (m *windowModel) solve(ctx context.Context, onLeaf func(starts []int)) ([]int, solve.MILPStat) {
	s := newWindowSearch(ctx, m)
	s.onLeaf = onLeaf
	if !s.loadArcs() {
		// The fixed arcs close a cycle, which a valid greedy schedule
		// rules out: keep the greedy starts, unproven.
		s.Stopped = true
	} else if s.bound >= s.inc {
		s.Pruned++
	} else {
		s.SetBound(float64(s.bound))
		s.dfs()
	}
	status := "feasible(limit)"
	if !s.Stopped {
		status = "optimal"
		s.SetBound(float64(s.inc))
	}
	// The record is sized as the MILP the search replaces: n starts
	// plus the makespan, one binary per free pair, and a row per arc,
	// per active task and two per disjunction.
	st := s.Done(status)
	st.Vars, st.IntVars, st.Constraints = len(m.dur)+1+len(m.free), len(m.free), len(m.arcs)+2*len(m.free)
	for _, a := range m.active {
		if a {
			st.Constraints++
		}
	}
	return s.best, st
}

// windowSearch is the state of one search: the arcs of the current
// branch with their longest paths, kept exact by incremental
// propagation and restored from a trail on backtrack.
type windowSearch struct {
	m          *windowModel
	succ, pred [][]int
	// est is the longest path to each start (the earliest start); tail
	// the longest path from each start to the end of the schedule. The
	// bound, est[i]+tail[i] maximized over i, is the makespan of est.
	est, tail []int
	bound     int
	// fixed marks the free pairs whose order the branch has chosen.
	fixed  []bool
	trail  []trailEntry
	queue  []int
	queued []bool

	solve.Tally
	inc    int
	best   []int
	onLeaf func([]int)
}

// trailEntry undoes one change: an est or tail value, the bound, a
// pair's fixed mark, or an arc appended to succ[i] and pred[old].
type trailEntry struct {
	kind trailKind
	i    int
	old  int
}

type trailKind uint8

const (
	trailEst trailKind = iota
	trailTail
	trailBound
	trailFixed
	trailArc
)

func newWindowSearch(ctx context.Context, m *windowModel) *windowSearch {
	n := len(m.dur)
	s := &windowSearch{
		m:      m,
		succ:   make([][]int, n),
		pred:   make([][]int, n),
		est:    make([]int, n),
		tail:   make([]int, n),
		fixed:  make([]bool, len(m.free)),
		queued: make([]bool, n),
		Tally:  solve.NewTally(ctx, windowLabel),
		best:   append([]int(nil), m.greedy...),
		inc:    m.makespan(m.greedy),
	}
	s.Record(float64(s.inc))
	return s
}

// loadArcs loads the fixed arcs, less every arc a longer path implies,
// with their longest paths. An arc weighs its source's duration and no
// weight is negative, so a path a→c⇝b is at least as long as an arc
// a→b: dropping the arc keeps every longest path, and propagation
// scans far fewer arcs (the plan orders every conflict-capable base
// pair, so its edges are dense). It reports false when the arcs close
// a cycle.
func (s *windowSearch) loadArcs() bool {
	m, n := s.m, len(s.m.dur)
	succ := make([][]int, n)
	indeg := make([]int, n)
	for _, a := range m.arcs {
		succ[a[0]] = append(succ[a[0]], a[1])
		indeg[a[1]]++
	}
	var order []int
	for i := range n {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for h := 0; h < len(order); h++ {
		for _, c := range succ[order[h]] {
			if indeg[c]--; indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	if len(order) < n {
		return false
	}
	// In reverse topological order, reach gets one bitset row per task:
	// the tasks one or more arcs away. via collects those two or more
	// arcs away; a direct arc to one of them is implied.
	words := (n + 63) / 64
	reach := make([]uint64, n*words)
	via := make([]uint64, words)
	for k := n - 1; k >= 0; k-- {
		a := order[k]
		row := reach[a*words : (a+1)*words]
		clear(via)
		for _, c := range succ[a] {
			for w, bits := range reach[c*words : (c+1)*words] {
				via[w] |= bits
			}
		}
		if m.active[a] {
			s.tail[a] = m.dur[a]
		}
		for _, c := range succ[a] {
			bit := uint64(1) << (c % 64)
			if (via[c/64]|row[c/64])&bit != 0 {
				continue
			}
			row[c/64] |= bit
			s.succ[a] = append(s.succ[a], c)
			s.pred[c] = append(s.pred[c], a)
			s.tail[a] = max(s.tail[a], m.dur[a]+s.tail[c])
		}
		for w, bits := range via {
			row[w] |= bits
		}
	}
	for _, a := range order {
		for _, c := range s.succ[a] {
			s.est[c] = max(s.est[c], s.est[a]+m.dur[a])
		}
	}
	s.bound = m.makespan(s.est)
	return true
}

// dfs explores the subtree of the current node, whose bound is below
// the incumbent.
func (s *windowSearch) dfs() {
	if !s.Node() {
		return
	}
	if !s.selectImmediate() {
		s.Pruned++
		return
	}
	p, forward := s.branchPair()
	if p < 0 {
		s.inc = s.bound
		copy(s.best, s.est)
		s.Record(float64(s.inc))
		if s.onLeaf != nil {
			s.onLeaf(s.est)
		}
		return
	}
	for _, dir := range [2]bool{forward, !forward} {
		mark := len(s.trail)
		if s.fix(p, dir) {
			s.dfs()
		} else {
			s.Pruned++
		}
		s.undo(mark)
		if s.Stopped {
			return
		}
	}
}

// selectImmediate fixes, until none is left, every open pair one of
// whose orders alone lifts the bound to the incumbent. It reports
// false when a pair has no order left below the incumbent.
func (s *windowSearch) selectImmediate() bool {
	for changed := true; changed; {
		changed = false
		for p, pr := range s.m.free {
			if s.fixed[p] {
				continue
			}
			i, j := pr[0], pr[1]
			ijOut := s.est[i]+s.m.dur[i]+s.tail[j] >= s.inc
			jiOut := s.est[j]+s.m.dur[j]+s.tail[i] >= s.inc
			if !ijOut && !jiOut {
				continue
			}
			// The order left standing is forward exactly when the
			// reverse one is out.
			if ijOut && jiOut || !s.fix(p, jiOut) {
				return false
			}
			changed = true
		}
	}
	return true
}

// branchPair returns the first open free pair whose earliest-start
// intervals overlap, and whether its first task should go first: the
// earlier-starting one, on a tie the lower index. It returns -1 at a
// leaf.
func (s *windowSearch) branchPair() (int, bool) {
	for p, pr := range s.m.free {
		if s.fixed[p] {
			continue
		}
		i, j := pr[0], pr[1]
		si, sj := s.est[i], s.est[j]
		if si < sj+s.m.dur[j] && sj < si+s.m.dur[i] {
			return p, si < sj || si == sj && i < j
		}
	}
	return -1, false
}

// fix orders free pair p (forward: its first task before its second)
// and propagates the new arc. It reports false when the order closes a
// positive cycle or lifts the bound to the incumbent; the caller
// undoes the partial changes either way.
func (s *windowSearch) fix(p int, forward bool) bool {
	a, b := s.m.free[p][0], s.m.free[p][1]
	if !forward {
		a, b = b, a
	}
	// With est and tail exact, the longest path through the new arc is
	// the new bound unless the arc closes a cycle.
	through := s.est[a] + s.m.dur[a] + s.tail[b]
	if through >= s.inc || s.bound >= s.inc {
		return false
	}
	s.trail = append(s.trail, trailEntry{trailFixed, p, 0}, trailEntry{trailArc, a, b})
	s.fixed[p] = true
	s.succ[a] = append(s.succ[a], b)
	s.pred[b] = append(s.pred[b], a)
	if through > s.bound {
		s.trail = append(s.trail, trailEntry{trailBound, 0, s.bound})
		s.bound = through
	}
	return s.raiseEst(a) && s.raiseTail(b)
}

// raiseEst propagates earliest starts from a along its new arc.
// Raising est[a] itself means the arc closed a positive cycle.
func (s *windowSearch) raiseEst(a int) bool {
	q := append(s.queue[:0], a)
	ok := true
	for h := 0; h < len(q); h++ {
		x := q[h]
		s.queued[x] = false
		if !ok {
			continue
		}
		v := s.est[x] + s.m.dur[x]
		for _, y := range s.succ[x] {
			if v <= s.est[y] {
				continue
			}
			if y == a {
				ok = false
				break
			}
			s.trail = append(s.trail, trailEntry{trailEst, y, s.est[y]})
			s.est[y] = v
			if !s.queued[y] {
				s.queued[y] = true
				q = append(q, y)
			}
		}
	}
	s.queue = q[:0]
	return ok
}

// raiseTail propagates tails back from b along its new arc. Raising
// tail[b] itself means the arc closed a positive cycle.
func (s *windowSearch) raiseTail(b int) bool {
	q := append(s.queue[:0], b)
	ok := true
	for h := 0; h < len(q); h++ {
		x := q[h]
		s.queued[x] = false
		if !ok {
			continue
		}
		for _, y := range s.pred[x] {
			v := s.m.dur[y] + s.tail[x]
			if v <= s.tail[y] {
				continue
			}
			if y == b {
				ok = false
				break
			}
			s.trail = append(s.trail, trailEntry{trailTail, y, s.tail[y]})
			s.tail[y] = v
			if !s.queued[y] {
				s.queued[y] = true
				q = append(q, y)
			}
		}
	}
	s.queue = q[:0]
	return ok
}

// undo restores the state the trail held at mark.
func (s *windowSearch) undo(mark int) {
	for k := len(s.trail) - 1; k >= mark; k-- {
		e := s.trail[k]
		switch e.kind {
		case trailEst:
			s.est[e.i] = e.old
		case trailTail:
			s.tail[e.i] = e.old
		case trailBound:
			s.bound = e.old
		case trailFixed:
			s.fixed[e.i] = false
		case trailArc:
			s.succ[e.i] = s.succ[e.i][:len(s.succ[e.i])-1]
			s.pred[e.old] = s.pred[e.old][:len(s.pred[e.old])-1]
		}
	}
	s.trail = s.trail[:mark]
}

// CompressBase returns the wash-free reference that T_delay and
// waiting times are measured against: the base re-timed greedily over
// its precedence DAG. With no washes the window model has no
// disjunctions, so its optimum is the DAG's longest path; every greedy
// start is checked against it. Measuring against the unre-timed input
// would let the window MILP compress greedy slack into negative delay.
func CompressBase(base *schedule.Schedule) (*schedule.Schedule, error) {
	plan, err := replan.Build(base, nil)
	if err != nil {
		return nil, err
	}
	greedy, err := plan.Greedy()
	if err != nil {
		return nil, err
	}
	if err := checkEarliestStarts(plan, greedy); err != nil {
		return nil, err
	}
	return greedy, nil
}

// checkEarliestStarts verifies that s starts every task of plan at its
// earliest start, the longest path to it over the precedence DAG. A
// later start means the greedy placer waited on a conflict-capable
// pair the DAG leaves unordered.
func checkEarliestStarts(plan *replan.Plan, s *schedule.Schedule) error {
	succs := make([][]int, len(plan.Tasks))
	for _, e := range plan.Edges {
		succs[e[0]] = append(succs[e[0]], e[1])
	}
	earliest := make([]int, len(plan.Tasks))
	for _, i := range plan.Order {
		id := plan.Tasks[i].ID
		if got := s.Task(id).Start; got != earliest[i] {
			return fmt.Errorf("pdw: reference task %s starts at %d, not at its longest-path start %d", id, got, earliest[i])
		}
		for _, j := range succs[i] {
			earliest[j] = max(earliest[j], earliest[i]+plan.Durations[i])
		}
	}
	return nil
}

// hazardPair reports whether flipping the pair's order against the
// greedy schedule could change which residues a sensitive use observes:
// a wash versus a task whose contamination or sensitivity touches the
// wash's targets.
func hazardPair(a, b *schedule.Task) bool {
	w, t := a, b
	if w.Kind != schedule.Wash {
		w, t = b, a
	}
	if w.Kind != schedule.Wash {
		return false
	}
	if t.Kind == schedule.Wash {
		// Two washes sharing cells: order is irrelevant for cleanliness
		// (both clean), only for resource conflicts.
		return false
	}
	tset := map[[2]int]bool{}
	for _, c := range w.WashTargets {
		tset[[2]int{c.X, c.Y}] = true
	}
	for _, c := range t.ContamCells {
		if tset[[2]int{c.X, c.Y}] {
			return true
		}
	}
	for _, c := range t.SensitiveCells {
		if tset[[2]int{c.X, c.Y}] {
			return true
		}
	}
	return false
}
