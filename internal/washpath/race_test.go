//go:build race

package washpath

// raceEnabled reports a race-detector build, under which the dense
// simplex of the ILP oracle runs roughly ten times slower.
const raceEnabled = true
