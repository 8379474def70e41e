package replan

import (
	"slices"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
)

// The all-pairs plan builder that the cell index replaced, kept as the
// reference of the differential tests: buildAllPairs returns the plan
// Build returned before, with one edge per conflict-capable base pair,
// ordered by the reference sort, and the free pairs found by testing
// every pair with a wash.

// conflictCapable is the pairwise resource rule the cell index replaced:
// the same device for two operations, a shared cell for two paths, and
// a path through the operation's device for a mixed pair.
func conflictCapable(chip *grid.Chip, t, u *schedule.Task) bool {
	crosses := func(p grid.Path, d *grid.Device) bool {
		return d != nil && slices.ContainsFunc(p.Cells, func(c geom.Point) bool { return chip.DeviceAt(c) == d })
	}
	tf, uf := t.Kind.Fluidic(), u.Kind.Fluidic()
	switch {
	case !tf && !uf:
		return t.Device == u.Device
	case tf && uf:
		return slices.ContainsFunc(t.Path.Cells, u.Path.Contains)
	case tf:
		return crosses(t.Path, u.Device)
	default:
		return crosses(u.Path, t.Device)
	}
}

// buildAllPairs is Build with the all-pairs base order, returning the
// plan's free pairs too.
func buildAllPairs(base *schedule.Schedule, washes []WashSpec) (*Plan, [][2]int, error) {
	p, err := assemble(base, washes)
	if err != nil {
		return nil, nil, err
	}
	bt := p.Tasks[:len(p.Tasks)-len(washes)] // base.SortedByStart() order
	for i := 0; i < len(bt); i++ {
		for j := i + 1; j < len(bt); j++ {
			a, b := bt[i], bt[j]
			// Integrated removals are inactive clones.
			if !a.Active() || !b.Active() {
				continue
			}
			if !conflictCapable(base.Chip, a, b) {
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
	if p.Order, err = p.topoOrderRef(); err != nil {
		return nil, nil, err
	}
	return p, p.refFreePairs(p.reachability().has), nil
}

// refFreePairs lists the conflict-capable pairs with a wash that
// reachable leaves unordered in either direction, testing every pair.
func (p *Plan) refFreePairs(reachable func(i, j int) bool) [][2]int {
	var out [][2]int
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
			if !conflictCapable(p.Base.Chip, a, b) {
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
