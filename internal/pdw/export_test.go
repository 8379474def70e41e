package pdw

import (
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
)

// Entry points for the external pdw_test package, whose tests build
// plans from internal/corpus instances (and corpus imports pdw).

var (
	OptimizeWindows     = optimizeWindows
	OptimizeWindowsMILP = optimizeWindowsMILP
)

// SetOnCover makes f the hook called after every wash cover PDW builds
// and returns the function that restores the previous hook.
func SetOnCover(f func()) (restore func()) {
	prev := onCover
	onCover = f
	return func() { onCover = prev }
}

// WindowFreePairs counts the disjunctions the window search orders on
// plan: its free pairs that are not hazard pairs.
func WindowFreePairs(plan *replan.Plan, greedy *schedule.Schedule) int {
	return len(newWindowModel(plan, greedy).free)
}

// BruteForceWindows is the window optimum of plan over every order of
// its free pairs.
func BruteForceWindows(plan *replan.Plan, greedy *schedule.Schedule) int {
	return newWindowModel(plan, greedy).bruteForce()
}
