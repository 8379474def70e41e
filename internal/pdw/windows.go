package pdw

import (
	"context"
	"fmt"
	"math"
	"time"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/milp"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// optimizeWindows solves the time-window MILP of Eqs. (1)-(8), (16)-(22):
// task start variables with fixed durations, precedence rows from the
// plan's DAG, big-M disjunctions for the plan's free conflict pairs, and
// makespan minimization. The greedy schedule warm-starts the search; the
// big-M constant is the greedy makespan, which is always a valid horizon.
//
// Pairs whose flip could reorder contamination relative to the greedy
// analysis (a wash versus a task touching its target cells) are fixed to
// the greedy order; see DESIGN.md for the safety argument.
func optimizeWindows(ctx context.Context, plan *replan.Plan, greedy *schedule.Schedule, limit time.Duration, stats *solve.Stats) (*schedule.Schedule, bool, error) {
	n := len(plan.Tasks)
	horizon := greedy.Makespan()
	if horizon <= 0 {
		return nil, false, fmt.Errorf("pdw: empty greedy schedule")
	}
	bigM := float64(horizon + 1)

	prob := milp.NewProblem(0)
	starts := make([]int, n)
	for i := range plan.Tasks {
		starts[i] = prob.AddContinuous(0, float64(horizon))
	}
	mk := prob.AddContinuous(0, float64(horizon))
	prob.SetObjective(mk, 1)

	// Precedence rows: end_i <= start_j.
	for _, e := range plan.Edges {
		prob.LP.AddConstraint(map[int]float64{
			starts[e[1]]: 1, starts[e[0]]: -1,
		}, lp.GE, float64(plan.Durations[e[0]]),
			fmt.Sprintf("prec-%s-%s", plan.Tasks[e[0]].ID, plan.Tasks[e[1]].ID))
	}
	// Makespan rows (Eq. 22 over all active tasks).
	for i, t := range plan.Tasks {
		if !t.Active() {
			continue
		}
		prob.LP.AddConstraint(map[int]float64{mk: 1, starts[i]: -1},
			lp.GE, float64(plan.Durations[i]), "mk-"+t.ID)
	}

	// Split free pairs into contamination-hazard pairs (fixed to greedy
	// order) and genuinely free disjunctions.
	gStart := func(i int) int { return greedy.Task(plan.Tasks[i].ID).Start }
	gEnd := func(i int) int { return greedy.Task(plan.Tasks[i].ID).End }

	type freePair struct {
		i, j int
		bvar int
	}
	var free []freePair
	for _, pr := range plan.FreePairs {
		i, j := pr[0], pr[1]
		if hazardPair(plan.Tasks[i], plan.Tasks[j]) {
			// Fix to greedy order.
			a, b := i, j
			if gEnd(j) <= gStart(i) {
				a, b = j, i
			}
			prob.LP.AddConstraint(map[int]float64{
				starts[b]: 1, starts[a]: -1,
			}, lp.GE, float64(plan.Durations[a]),
				fmt.Sprintf("haz-%s-%s", plan.Tasks[a].ID, plan.Tasks[b].ID))
			continue
		}
		b := prob.AddBinary()
		// b=0: i before j; b=1: j before i (the ε/μ/η of Eqs. 8/19/20).
		prob.LP.AddConstraint(map[int]float64{
			starts[j]: 1, starts[i]: -1, b: bigM,
		}, lp.GE, float64(plan.Durations[i]),
			fmt.Sprintf("disj0-%s-%s", plan.Tasks[i].ID, plan.Tasks[j].ID))
		prob.LP.AddConstraint(map[int]float64{
			starts[i]: 1, starts[j]: -1, b: -bigM,
		}, lp.GE, float64(plan.Durations[j])-bigM,
			fmt.Sprintf("disj1-%s-%s", plan.Tasks[i].ID, plan.Tasks[j].ID))
		free = append(free, freePair{i: i, j: j, bvar: b})
	}

	// Warm start from the greedy schedule.
	inc := make([]float64, prob.LP.NumVars)
	for i := range plan.Tasks {
		inc[starts[i]] = float64(gStart(i))
	}
	inc[mk] = float64(horizon)
	for _, fp := range free {
		if gEnd(fp.i) <= gStart(fp.j) {
			inc[fp.bvar] = 0
		} else {
			inc[fp.bvar] = 1
		}
	}

	solve.ProgressFromContext(ctx).SetModel("window-milp")
	res, err := milp.SolveContext(ctx, prob, milp.Options{TimeLimit: limit, Incumbent: inc})
	if err != nil {
		return nil, false, err
	}
	stats.AddMILP(res.Stat("window-milp", prob))
	if res.Status == milp.Infeasible {
		return nil, false, fmt.Errorf("pdw: window MILP %w", solve.ErrInfeasible)
	}
	if res.Status != milp.Optimal && res.Status != milp.Feasible {
		return nil, false, fmt.Errorf("pdw: window MILP status %v: %w", res.Status, solve.ErrBudgetExceeded)
	}
	out := make([]int, n)
	for i := range plan.Tasks {
		out[i] = int(math.Round(res.X[starts[i]]))
		if out[i] < 0 {
			out[i] = 0
		}
	}
	sched, err := plan.Apply(out)
	if err != nil {
		return nil, false, err
	}
	return sched, res.Status == milp.Optimal, nil
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
	order, err := plan.TopoOrder()
	if err != nil {
		return err
	}
	succs := make([][]int, len(plan.Tasks))
	for _, e := range plan.Edges {
		succs[e[0]] = append(succs[e[0]], e[1])
	}
	earliest := make([]int, len(plan.Tasks))
	for _, i := range order {
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
