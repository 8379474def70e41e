package lp

// PivotHeavyProblem exposes the progress tests' dense LP to the
// external lp_test package.
var PivotHeavyProblem = pivotHeavyProblem
