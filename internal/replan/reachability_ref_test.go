package replan

// reachabilityMap is the map-per-task transitive closure that the
// bitset rows replaced, kept as their differential reference.
func (p *Plan) reachabilityMap() []map[int]bool {
	n := len(p.Tasks)
	adj := make([][]int, n)
	for _, e := range p.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	reach := make([]map[int]bool, n)
	var dfs func(root, v int)
	dfs = func(root, v int) {
		for _, w := range adj[v] {
			if !reach[root][w] {
				reach[root][w] = true
				dfs(root, w)
			}
		}
	}
	for i := 0; i < n; i++ {
		reach[i] = map[int]bool{}
		dfs(i, i)
	}
	return reach
}
