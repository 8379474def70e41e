// Package washpath constructs wash paths: complete flow paths
// [flow port - contaminated cells - waste port] covering a set of wash
// targets at minimum length.
//
// The exact mode finds the optimum of the paper's path ILP (Sec. III)
// by a depth-first branch and bound over the paths it admits:
//
//   - Eq. 12: exactly one flow port and one waste port are allocated;
//   - Eq. 13: exactly one cell adjacent to each chosen port is occupied;
//   - Eq. 14: every occupied cell has exactly two occupied neighbours,
//     chosen ports included;
//   - Eq. 15: every wash target is covered;
//   - objective: minimize the number of occupied cells (the path's
//     contribution to L_wash in Eq. 25).
//
// Cells of devices that are not themselves wash targets are excluded —
// buffer must not flush through a device holding fluid. The ILP on
// internal/milp stays in the package's tests as the search's oracle.
//
// The heuristic mode is the BFS chain construction of route.FlushPath,
// the same procedure the DAWO baseline uses. Its path is the exact
// mode's first incumbent, so an exact plan is never longer.
package washpath

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/solve"
)

// Request asks for one wash path.
type Request struct {
	// Targets are the contaminated cells the path must cover; a
	// repeated cell counts once. For the heuristic they must form a
	// chain (use ChainOrder to arrange arbitrary connected sets).
	Targets []geom.Point
}

// Options tunes the construction.
type Options struct {
	// Exact selects the path search; false selects the BFS heuristic
	// only.
	Exact bool
	// TimeLimit bounds the search (default 5 s), on top of the ctx
	// deadline. On expiry the shortest path found so far is used,
	// otherwise the heuristic result.
	TimeLimit time.Duration
	// Trace optionally records each search's size and effort; nil
	// disables recording.
	Trace *solve.Stats
}

// Plan is a constructed wash path.
type Plan struct {
	Path      grid.Path
	FlowPort  *grid.Port
	WastePort *grid.Port
	// Optimal reports that the search proved no Eqs. 12-15 path is
	// shorter than Path.
	Optimal bool
	// Exact reports that the search settled the plan: it found Path, or
	// proved that nothing shorter exists (false: heuristic fallback).
	Exact bool
}

// Build constructs a wash path for the request.
func Build(chip *grid.Chip, req Request, opts Options) (Plan, error) {
	return BuildContext(context.Background(), chip, req, opts)
}

// BuildContext is Build under a context: a canceled or expired ctx
// degrades the exact mode to the best path in hand, the BFS heuristic
// when the search found nothing shorter, instead of failing.
func BuildContext(ctx context.Context, chip *grid.Chip, req Request, opts Options) (Plan, error) {
	if len(req.Targets) == 0 {
		return Plan{}, fmt.Errorf("washpath: no targets")
	}
	for _, t := range req.Targets {
		if !chip.Routable(t) {
			return Plan{}, fmt.Errorf("washpath: target %v is not routable", t)
		}
		if chip.PortAt(t) != nil {
			return Plan{}, fmt.Errorf("washpath: target %v is a port cell", t)
		}
	}
	targets := distinct(req.Targets)
	req.Targets = targets
	heur, heurErr := heuristic(chip, req)
	if !opts.Exact {
		return heur, heurErr
	}
	if onExactBuild != nil {
		onExactBuild(chip, targets)
	}
	var inc *Plan
	if heurErr == nil {
		inc = &heur
	}
	plan, err := searchPath(ctx, chip, targets, opts, inc)
	if err != nil {
		if heurErr != nil {
			return Plan{}, fmt.Errorf("washpath: search failed (%w) and heuristic failed (%v)", err, heurErr)
		}
		return Plan{}, err
	}
	return plan, nil
}

// distinct returns ts without repeats, in first-occurrence order; ts
// itself when it has none.
func distinct(ts []geom.Point) []geom.Point {
	for i := range ts {
		if slices.Contains(ts[:i], ts[i]) {
			out := slices.Clone(ts[:i])
			for _, t := range ts[i+1:] {
				if !slices.Contains(out, t) {
					out = append(out, t)
				}
			}
			return out
		}
	}
	return ts
}

// onExactBuild, when set, sees every exact build's chip and distinct
// targets; tests capture the models PDW builds through it.
var onExactBuild func(*grid.Chip, []geom.Point)

// heuristic builds the BFS chain path (DAWO's construction).
func heuristic(chip *grid.Chip, req Request) (Plan, error) {
	chain, err := ChainOrder(req.Targets)
	if err != nil {
		return Plan{}, err
	}
	o := route.Options{AvoidPorts: true, AvoidDevices: true, Exempt: req.Targets}
	p, fp, wp, err := route.FlushPath(chip, chain, o)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Path: p, FlowPort: fp, WastePort: wp}, nil
}

// chainBudget caps ChainOrder's search nodes over all starts.
const chainBudget = 200000

// ChainOrder arranges a connected target set into a traversal order
// whose consecutive members are adjacent (a Hamiltonian path on the
// induced grid subgraph); a repeated target appears once. It is a
// depth-first search with backtracking over the distinct cells: starts
// are tried in ascending degree order (ties row-major), and each node
// visits its unvisited neighbours fewest onward options first
// (Warnsdorff; ties in N, E, S, W order). A node is cut, without
// expanding it, when its unvisited cells cannot be chained from it:
//
//   - some unvisited cell is not reachable from the current cell
//     through unvisited cells; or
//   - more than two unvisited cells have at most one unvisited
//     neighbour, or two do and neither is next to the current cell
//     (only the chain's next cell and its last cell can have so few).
//
// Both cuts are exact, so they never change which chain is found first.
// The search stops after 200,000 nodes in total over all starts, which
// bounds its cost on sets that hold no chain. Fails if no chain is found.
func ChainOrder(targets []geom.Point) ([]geom.Point, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("washpath: empty target set")
	}
	cells := slices.Clone(targets)
	slices.SortFunc(cells, rowMajor)
	cells = slices.Compact(cells)
	if len(cells) == 1 {
		return []geom.Point{targets[0]}, nil
	}
	c := newChainSearch(cells)
	starts := make([]int32, len(cells))
	for i := range starts {
		starts[i] = int32(i)
	}
	// Low-degree cells are the only viable chain endpoints.
	slices.SortStableFunc(starts, func(a, b int32) int { return int(c.deg[a]) - int(c.deg[b]) })
	for _, s := range starts {
		c.take(s)
		c.path = append(c.path[:0], s)
		if c.dfs(s) {
			order := make([]geom.Point, len(c.path))
			for i, v := range c.path {
				order[i] = cells[v]
			}
			return order, nil
		}
		c.give(s)
	}
	return nil, fmt.Errorf("washpath: %d targets cannot be chained", len(cells))
}

func rowMajor(a, b geom.Point) int {
	if a.Y != b.Y {
		return a.Y - b.Y
	}
	return a.X - b.X
}

// chainSearch is ChainOrder's state over local cell indices: cell i's
// neighbours in N, E, S, W order (-1 where no target), which cells are
// unvisited, and each cell's count of unvisited neighbours, kept
// incrementally as cells are taken and given back.
type chainSearch struct {
	nb     [][4]int32
	free   []bool
	deg    []int8
	left   int // unvisited cells
	low    int // unvisited cells with deg <= 1
	budget int
	path   []int32
	// Reachability scratch: mark[i] == stamp marks i as reached.
	mark  []int32
	stamp int32
	stack []int32
}

func newChainSearch(cells []geom.Point) *chainSearch {
	n := len(cells)
	c := &chainSearch{
		nb: make([][4]int32, n), free: make([]bool, n), deg: make([]int8, n),
		left: n, budget: chainBudget, mark: make([]int32, n),
	}
	for i, p := range cells {
		c.free[i] = true
		for d, q := range p.Neighbors() {
			j, ok := slices.BinarySearchFunc(cells, q, rowMajor)
			if !ok {
				c.nb[i][d] = -1
				continue
			}
			c.nb[i][d] = int32(j)
			c.deg[i]++
		}
		if c.deg[i] <= 1 {
			c.low++
		}
	}
	return c
}

// take marks v visited.
func (c *chainSearch) take(v int32) {
	c.free[v] = false
	c.left--
	if c.deg[v] <= 1 {
		c.low--
	}
	for _, u := range c.nb[v] {
		if u >= 0 {
			c.deg[u]--
			if c.free[u] && c.deg[u] == 1 {
				c.low++
			}
		}
	}
}

// give undoes take(v).
func (c *chainSearch) give(v int32) {
	for _, u := range c.nb[v] {
		if u >= 0 {
			if c.free[u] && c.deg[u] == 1 {
				c.low--
			}
			c.deg[u]++
		}
	}
	c.free[v] = true
	c.left++
	if c.deg[v] <= 1 {
		c.low++
	}
}

// dfs extends the chain ending at cur over every unvisited cell.
func (c *chainSearch) dfs(cur int32) bool {
	if c.left == 0 {
		return true
	}
	if c.budget <= 0 {
		return false
	}
	c.budget--
	if !c.viable(cur) {
		return false
	}
	// Visit neighbours with fewest onward options first (Warnsdorff),
	// by a stable insertion sort.
	var nbs [4]int32
	k := 0
	for _, q := range c.nb[cur] {
		if q < 0 || !c.free[q] {
			continue
		}
		j := k
		for ; j > 0 && c.deg[nbs[j-1]] > c.deg[q]; j-- {
			nbs[j] = nbs[j-1]
		}
		nbs[j] = q
		k++
	}
	for _, q := range nbs[:k] {
		c.take(q)
		c.path = append(c.path, q)
		if c.dfs(q) {
			return true
		}
		c.path = c.path[:len(c.path)-1]
		c.give(q)
	}
	return false
}

// viable reports whether the unvisited cells pass ChainOrder's two
// necessary conditions for a chain from cur through all of them.
func (c *chainSearch) viable(cur int32) bool {
	switch {
	case c.low > 2:
		return false
	case c.low == 2:
		next := false
		for _, q := range c.nb[cur] {
			if q >= 0 && c.free[q] && c.deg[q] <= 1 {
				next = true
			}
		}
		if !next {
			return false
		}
	}
	c.stamp++
	c.mark[cur] = c.stamp
	stack := append(c.stack[:0], cur)
	reached := 0
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range c.nb[p] {
			if q >= 0 && c.free[q] && c.mark[q] != c.stamp {
				c.mark[q] = c.stamp
				reached++
				stack = append(stack, q)
			}
		}
	}
	c.stack = stack
	return reached == c.left
}
