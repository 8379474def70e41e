package replan

import (
	"fmt"
	"slices"
)

// CheckClosure compares the plan's bitset closure with the map-based
// reference pair by pair, and its FreePairs with the pairs the
// reference closure leaves free.
func CheckClosure(p *Plan) error {
	ref := p.reachabilityMap()
	got := p.reachability()
	for i := range p.Tasks {
		for j := range p.Tasks {
			if got.has(i, j) != ref[i][j] {
				return fmt.Errorf("%s reaches %s: bitset %v, map %v",
					p.Tasks[i].ID, p.Tasks[j].ID, got.has(i, j), ref[i][j])
			}
		}
	}
	want := p.freePairs(func(i, j int) bool { return ref[i][j] })
	if !slices.Equal(p.FreePairs, want) {
		return fmt.Errorf("free pairs %v, map closure gives %v", p.FreePairs, want)
	}
	return nil
}
