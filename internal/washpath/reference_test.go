package washpath

import (
	"fmt"
	"sort"

	"pathdriverwash/internal/geom"
)

// refChainOrder is the map-based ChainOrder the dense search replaced,
// kept as the reference of the differential tests. It returns what the
// package returned before the rewrite, plus the nodes its search
// expanded: nodes == chainBudget means it ran out of budget.
func refChainOrder(targets []geom.Point) ([]geom.Point, int, error) {
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("washpath: empty target set")
	}
	set := map[geom.Point]bool{}
	for _, t := range targets {
		set[t] = true
	}
	if len(set) == 1 {
		return []geom.Point{targets[0]}, 0, nil
	}
	cells := make([]geom.Point, 0, len(set))
	for p := range set {
		cells = append(cells, p)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Y != cells[j].Y {
			return cells[i].Y < cells[j].Y
		}
		return cells[i].X < cells[j].X
	})
	deg := func(p geom.Point, in map[geom.Point]bool) int {
		n := 0
		for _, q := range p.Neighbors() {
			if in[q] {
				n++
			}
		}
		return n
	}
	starts := append([]geom.Point(nil), cells...)
	sort.SliceStable(starts, func(i, j int) bool {
		return deg(starts[i], set) < deg(starts[j], set)
	})

	budget := chainBudget
	var order []geom.Point
	var dfs func(cur geom.Point, remaining map[geom.Point]bool) bool
	dfs = func(cur geom.Point, remaining map[geom.Point]bool) bool {
		if len(remaining) == 0 {
			return true
		}
		if budget <= 0 {
			return false
		}
		budget--
		var nbs []geom.Point
		for _, q := range cur.Neighbors() {
			if remaining[q] {
				nbs = append(nbs, q)
			}
		}
		sort.SliceStable(nbs, func(i, j int) bool {
			return deg(nbs[i], remaining) < deg(nbs[j], remaining)
		})
		for _, q := range nbs {
			delete(remaining, q)
			order = append(order, q)
			if dfs(q, remaining) {
				return true
			}
			order = order[:len(order)-1]
			remaining[q] = true
		}
		return false
	}
	for _, s := range starts {
		remaining := make(map[geom.Point]bool, len(set))
		for p := range set {
			remaining[p] = true
		}
		delete(remaining, s)
		order = []geom.Point{s}
		if dfs(s, remaining) {
			return order, chainBudget - budget, nil
		}
	}
	return nil, chainBudget - budget, fmt.Errorf("washpath: %d targets cannot be chained", len(set))
}
