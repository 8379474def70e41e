package replan

import (
	"fmt"
	"slices"
	"sort"
)

// topoOrderRef is the stand-alone topological sort that Build's Order
// replaced, kept as its differential reference: Kahn's algorithm over
// the plan's edges, taking the ready task with the lowest (base start,
// ID) first. It fails on cycles.
func (p *Plan) topoOrderRef() ([]int, error) {
	n := len(p.Tasks)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range p.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	ready := []int{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	less := func(a, b int) bool {
		ta, tb := p.Tasks[a], p.Tasks[b]
		if ta.Start != tb.Start {
			return ta.Start < tb.Start
		}
		return ta.ID < tb.ID
	}
	var order []int
	for len(ready) > 0 {
		sort.Slice(ready, func(x, y int) bool { return less(ready[x], ready[y]) })
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("replan: precedence cycle (%d of %d ordered; stuck: %s)",
			len(order), n, p.describeCycle(indeg))
	}
	return order, nil
}

// checkOrder fails unless the plan's Order is the reference's.
func checkOrder(p *Plan) error {
	ref, err := p.topoOrderRef()
	if err != nil {
		return fmt.Errorf("Build accepted a plan the reference sort rejects: %w", err)
	}
	if !slices.Equal(p.Order, ref) {
		return fmt.Errorf("order %v, reference %v", p.Order, ref)
	}
	return nil
}
