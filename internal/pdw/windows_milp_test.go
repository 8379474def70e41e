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

// optimizeWindowsMILP is the differential oracle of optimizeWindows:
// the time-window MILP of Eqs. (1)-(8), (16)-(22) as the paper states
// it, built straight from the plan — task start variables with fixed
// durations, precedence rows from the plan's DAG, big-M disjunctions
// for the free conflict pairs, hazard pairs pinned to the greedy order,
// and makespan minimization — and solved by milp's LP branch & bound,
// warm-started from the greedy schedule. The big-M constant is the
// greedy makespan, which is always a valid horizon.
func optimizeWindowsMILP(ctx context.Context, plan *replan.Plan, greedy *schedule.Schedule, limit time.Duration) (*schedule.Schedule, bool, error) {
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
	for _, pr := range plan.FreePairs() {
		i, j := pr[0], pr[1]
		if hazardPair(plan.Tasks[i], plan.Tasks[j]) {
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

	res, err := milp.SolveContext(ctx, prob, milp.Options{TimeLimit: limit, Incumbent: inc})
	if err != nil {
		return nil, false, err
	}
	if res.Status == milp.Infeasible {
		return nil, false, fmt.Errorf("pdw: window MILP %w", solve.ErrInfeasible)
	}
	if res.Status != milp.Optimal && res.Status != milp.Feasible {
		return nil, false, fmt.Errorf("pdw: window MILP status %v: %w", res.Status, solve.ErrBudgetExceeded)
	}
	out := make([]int, n)
	for i := range plan.Tasks {
		out[i] = max(0, int(math.Round(res.X[starts[i]])))
	}
	sched, err := plan.Apply(out)
	if err != nil {
		return nil, false, err
	}
	return sched, res.Status == milp.Optimal, nil
}
