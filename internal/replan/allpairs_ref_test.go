package replan

import (
	"pathdriverwash/internal/schedule"
)

// The all-pairs plan builder that the resource index replaced, kept as
// the reference of the differential tests: buildAllPairs returns the
// plan Build returned before, with one edge per conflict-capable base
// pair and the free pairs found by testing every pair with a wash.

// buildAllPairs is Build with the all-pairs base order and free pairs.
func buildAllPairs(base *schedule.Schedule, washes []WashSpec) (*Plan, error) {
	p, err := assemble(base, washes)
	if err != nil {
		return nil, err
	}
	pl := schedule.NewPlacer(base)
	bt := p.Tasks[:len(p.Tasks)-len(washes)] // base.SortedByStart() order
	for i := 0; i < len(bt); i++ {
		for j := i + 1; j < len(bt); j++ {
			a, b := bt[i], bt[j]
			// Integrated removals are inactive clones.
			if !a.Active() || !b.Active() {
				continue
			}
			if !pl.ConflictCapable(a, b) {
				continue
			}
			first, second := a, b
			if b.End <= a.Start {
				first, second = b, a
			}
			p.Edges = append(p.Edges, [2]int{p.Index[first.ID], p.Index[second.ID]})
		}
	}
	seen := map[[2]int]bool{}
	out := p.Edges[:0]
	for _, e := range p.Edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	p.Edges = out
	p.FreePairs = p.refFreePairs(p.reachability().has)
	return p, nil
}

// refFreePairs lists the conflict-capable pairs with a wash that
// reachable leaves unordered in either direction, testing every pair.
func (p *Plan) refFreePairs(reachable func(i, j int) bool) [][2]int {
	var out [][2]int
	pl := schedule.NewPlacer(p.Base)
	n := len(p.Tasks)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := p.Tasks[i], p.Tasks[j]
			if a.Kind != schedule.Wash && b.Kind != schedule.Wash {
				continue
			}
			if !a.Active() || !b.Active() {
				continue
			}
			if !pl.ConflictCapable(a, b) {
				continue
			}
			if reachable(i, j) || reachable(j, i) {
				continue
			}
			out = append(out, [2]int{i, j})
		}
	}
	return out
}
