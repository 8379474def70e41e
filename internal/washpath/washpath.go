// Package washpath constructs wash paths: complete flow paths
// [flow port - contaminated cells - waste port] covering a set of wash
// targets at minimum length.
//
// The exact mode implements the paper's ILP (Sec. III):
//
//   - Eq. 12: exactly one flow port and one waste port are allocated;
//   - Eq. 13: exactly one cell adjacent to each chosen port is occupied;
//   - Eq. 14: every interior occupied cell has exactly two occupied
//     neighbours (path degree);
//   - Eq. 15: every wash target is covered;
//   - objective: minimize the number of occupied cells (the path's
//     contribution to L_wash in Eq. 25).
//
// Eq. 14 alone admits solutions with disconnected cycles, so the solver
// adds lazy connectivity cuts: whenever the incumbent selection splits
// into multiple components, each component not containing the chosen
// flow port is forbidden and the ILP is re-solved (documented in
// DESIGN.md). Cells of devices that are not themselves wash targets are
// excluded — buffer must not flush through a device holding fluid.
//
// The heuristic mode (and the fallback when the ILP hits its time
// budget) is the BFS chain construction of route.FlushPath, the same
// procedure the DAWO baseline uses.
package washpath

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/milp"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/solve"
)

// Request asks for one wash path.
type Request struct {
	// Targets are the contaminated cells the path must cover. They are
	// used as given for the ILP; for the heuristic they must form a
	// chain (use ChainOrder to arrange arbitrary connected sets).
	Targets []geom.Point
}

// Options tunes the construction.
type Options struct {
	// Exact selects the ILP; false selects the BFS heuristic only.
	Exact bool
	// TimeLimit bounds the ILP solve (default 5 s). On expiry the best
	// incumbent is used if valid, otherwise the heuristic result.
	TimeLimit time.Duration
	// Trace optionally records each path ILP's size and search effort;
	// nil disables recording.
	Trace *solve.Stats
}

// Plan is a constructed wash path.
type Plan struct {
	Path      grid.Path
	FlowPort  *grid.Port
	WastePort *grid.Port
	// Optimal reports whether the ILP proved minimality.
	Optimal bool
	// Exact reports whether the path came from the ILP (false: heuristic).
	Exact bool
}

// Build constructs a wash path for the request.
func Build(chip *grid.Chip, req Request, opts Options) (Plan, error) {
	return BuildContext(context.Background(), chip, req, opts)
}

// BuildContext is Build under a context: a canceled or expired ctx
// degrades the exact mode to the BFS heuristic (the same fallback used
// when the ILP time limit expires) instead of failing.
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
	heur, heurErr := heuristic(chip, req)
	if !opts.Exact {
		return heur, heurErr
	}
	plan, err := buildILP(ctx, chip, req, opts, heur, heurErr == nil)
	if err != nil {
		if heurErr == nil {
			return heur, nil
		}
		return Plan{}, fmt.Errorf("washpath: ILP failed (%v) and heuristic failed (%v)", err, heurErr)
	}
	return plan, nil
}

// heuristic builds the BFS chain path (DAWO's construction).
func heuristic(chip *grid.Chip, req Request) (Plan, error) {
	chain, err := ChainOrder(req.Targets)
	if err != nil {
		return Plan{}, err
	}
	o := route.Options{AvoidPorts: true, AvoidDevices: forbiddenDevCells(chip, req.Targets)}
	p, fp, wp, err := route.FlushPath(chip, chain, o)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Path: p, FlowPort: fp, WastePort: wp}, nil
}

// forbiddenDevCells returns device cells that are not wash targets.
func forbiddenDevCells(chip *grid.Chip, targets []geom.Point) map[geom.Point]bool {
	tset := map[geom.Point]bool{}
	for _, t := range targets {
		tset[t] = true
	}
	out := map[geom.Point]bool{}
	for _, d := range chip.Devices() {
		for _, c := range d.Cells() {
			if !tset[c] {
				out[c] = true
			}
		}
	}
	return out
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

// maxCuts bounds the ILP's lazy connectivity rounds.
const maxCuts = 20

// buildILP solves the Eqs. 12-15 formulation with lazy connectivity cuts.
func buildILP(ctx context.Context, chip *grid.Chip, req Request, opts Options, heur Plan, haveHeur bool) (_ Plan, err error) {
	tl := opts.TimeLimit
	if tl <= 0 {
		tl = 5 * time.Second
	}
	deadline := time.Now().Add(tl)

	ctx, span := obs.Start(ctx, "washpath.ilp", obs.A("targets", len(req.Targets)))
	rounds := 0
	defer func() {
		if span != nil {
			span.SetAttr("cut_rounds", rounds)
			span.SetAttr("ok", err == nil)
			span.End()
		}
		obs.Default().Counter("pdw_washpath_ilps_total").Inc()
		obs.Default().Counter("pdw_washpath_cut_rounds_total").Add(int64(rounds))
	}()

	cp := solve.NewCheckpoint(ctx)
	m, err := newModel(chip, req, heur, haveHeur, &cp)
	if err != nil {
		return Plan{}, err
	}
	if m == nil {
		return Plan{}, fmt.Errorf("washpath: no usable cells")
	}

	var extraCuts []map[int]float64
	for round := 0; round <= maxCuts; round++ {
		rounds = round
		remain := time.Until(deadline)
		if remain <= 0 || cp.Err() != nil {
			return Plan{}, fmt.Errorf("washpath: %w during cut round %d", solve.ErrBudgetExceeded, round)
		}
		prob := m.problem(extraCuts)
		label := fmt.Sprintf("wash-path[%dt r%d]", len(req.Targets), round)
		// Publish the model about to be solved so /debug/solves names the
		// ILP the node/pivot counters currently belong to.
		solve.ProgressFromContext(ctx).SetModel(label)
		res, err := milp.SolveContext(ctx, prob, milp.Options{TimeLimit: remain})
		if err != nil {
			return Plan{}, err
		}
		opts.Trace.AddMILP(res.Stat(label, prob))
		if res.Status == milp.Infeasible {
			return Plan{}, fmt.Errorf("washpath: ILP %w", solve.ErrInfeasible)
		}
		if res.Status != milp.Optimal && res.Status != milp.Feasible {
			return Plan{}, fmt.Errorf("washpath: ILP status %v: %w", res.Status, solve.ErrBudgetExceeded)
		}
		plan, cut := m.extract(res.X)
		if cut != nil {
			span.Event("connectivity-cut",
				obs.A("round", round), obs.A("component_cells", len(cut)))
			extraCuts = append(extraCuts, cut)
			continue
		}
		if err := plan.Path.ValidateComplete(chip); err != nil {
			return Plan{}, fmt.Errorf("washpath: ILP produced invalid path: %w", err)
		}
		if !plan.Path.Covers(req.Targets) {
			return Plan{}, fmt.Errorf("washpath: ILP path misses targets")
		}
		plan.Optimal = res.Status == milp.Optimal
		plan.Exact = true
		return plan, nil
	}
	return Plan{}, fmt.Errorf("washpath: connectivity cuts did not converge in %d rounds: %w", maxCuts, solve.ErrBudgetExceeded)
}

// model holds the variable layout of the path ILP.
type model struct {
	chip     *grid.Chip
	targets  []geom.Point
	cells    []geom.Point       // usable non-port cells
	cellVar  map[geom.Point]int // cell -> y variable
	fports   []*grid.Port
	wports   []*grid.Port
	fpVar    map[string]int // port id -> s/t variable
	wpVar    map[string]int
	n        int
	heur     Plan
	haveHeur bool
}

// newModel enumerates the usable cells and ports of the path ILP. The
// per-target distance sweeps (one BFS over the chip each) and the cell
// enumeration are the enumeration hot loops of the exact mode; the
// checkpoint aborts them with ErrBudgetExceeded, which BuildContext
// turns into the heuristic fallback.
func newModel(chip *grid.Chip, req Request, heur Plan, haveHeur bool, cp *solve.Checkpoint) (*model, error) {
	m := &model{
		chip: chip, targets: req.Targets,
		cellVar: map[geom.Point]int{},
		fpVar:   map[string]int{}, wpVar: map[string]int{},
		heur: heur, haveHeur: haveHeur,
	}
	forbidden := forbiddenDevCells(chip, req.Targets)

	// Locality pruning: with a heuristic of length L, any cell of a
	// shorter path lies within L hops of every target.
	var near func(geom.Point) bool // nil: no pruning
	if haveHeur {
		// A path shorter than the heuristic keeps every cell within
		// heuristic-length hops of each target, so farther cells can
		// only appear in tie solutions and are safely pruned.
		bound := heur.Path.Len()
		maxDist := make([]int, chip.W*chip.H) // by y*W+x; -1: no target reaches it
		for i := range maxDist {
			maxDist[i] = -1
		}
		for _, t := range req.Targets {
			// One whole-chip BFS per target: poll without amortization.
			if err := cp.Err(); err != nil {
				return nil, fmt.Errorf("washpath: %w during model build: %w", solve.ErrBudgetExceeded, err)
			}
			d := route.Distances(chip, t, route.Options{AvoidDevices: forbidden})
			for i := range maxDist {
				if dd, ok := d.At(geom.Pt(i%chip.W, i/chip.W)); ok && dd > maxDist[i] {
					maxDist[i] = dd
				}
			}
		}
		near = func(p geom.Point) bool {
			if !chip.InBounds(p) {
				return false
			}
			dd := maxDist[p.Y*chip.W+p.X]
			return dd >= 0 && dd < bound
		}
	}

	for _, p := range chip.RoutableCells() {
		if err := cp.Check(); err != nil {
			return nil, fmt.Errorf("washpath: %w during model build: %w", solve.ErrBudgetExceeded, err)
		}
		if chip.PortAt(p) != nil || forbidden[p] {
			continue
		}
		if near != nil && !near(p) {
			continue
		}
		m.cellVar[p] = m.n
		m.cells = append(m.cells, p)
		m.n++
	}
	for _, t := range req.Targets {
		if _, ok := m.cellVar[t]; !ok {
			return nil, nil // target pruned away: should not happen
		}
	}
	for _, p := range chip.FlowPorts() {
		if near != nil && !adjacentToNear(p.At, near) {
			continue
		}
		m.fpVar[p.ID] = m.n
		m.fports = append(m.fports, p)
		m.n++
	}
	for _, p := range chip.WastePorts() {
		if near != nil && !adjacentToNear(p.At, near) {
			continue
		}
		m.wpVar[p.ID] = m.n
		m.wports = append(m.wports, p)
		m.n++
	}
	if len(m.fports) == 0 || len(m.wports) == 0 {
		// Pruning removed all ports; fall back to every port.
		for _, p := range chip.FlowPorts() {
			if _, ok := m.fpVar[p.ID]; !ok {
				m.fpVar[p.ID] = m.n
				m.fports = append(m.fports, p)
				m.n++
			}
		}
		for _, p := range chip.WastePorts() {
			if _, ok := m.wpVar[p.ID]; !ok {
				m.wpVar[p.ID] = m.n
				m.wports = append(m.wports, p)
				m.n++
			}
		}
	}
	if m.n == 0 {
		return nil, nil
	}
	return m, nil
}

func adjacentToNear(p geom.Point, near func(geom.Point) bool) bool {
	if near(p) {
		return true
	}
	for _, q := range p.Neighbors() {
		if near(q) {
			return true
		}
	}
	return false
}

// problem assembles the MILP with the given extra connectivity cuts.
func (m *model) problem(cuts []map[int]float64) *milp.Problem {
	p := milp.NewProblem(0)
	for i := 0; i < m.n; i++ {
		p.AddBinary()
	}
	// Objective: path length in cells (ports count once each, constant).
	for _, c := range m.cells {
		p.SetObjective(m.cellVar[c], 1)
	}

	// Eq. 12: one flow port, one waste port.
	fsum := map[int]float64{}
	for _, fp := range m.fports {
		fsum[m.fpVar[fp.ID]] = 1
	}
	p.LP.AddConstraint(fsum, lp.EQ, 1, "eq12-flow")
	wsum := map[int]float64{}
	for _, wp := range m.wports {
		wsum[m.wpVar[wp.ID]] = 1
	}
	p.LP.AddConstraint(wsum, lp.EQ, 1, "eq12-waste")

	// Eq. 13: exactly one neighbour of a chosen port is occupied; an
	// unchosen port contributes no requirement.
	portDegree := func(at geom.Point, v int, name string) {
		coefs := map[int]float64{}
		cnt := 0
		for _, q := range at.Neighbors() {
			if j, ok := m.cellVar[q]; ok {
				coefs[j] = 1
				cnt++
			}
		}
		if cnt == 0 {
			// Port has no usable neighbour: cannot be chosen.
			p.LP.AddConstraint(map[int]float64{v: 1}, lp.EQ, 0, name+"-isolated")
			return
		}
		lo := map[int]float64{}
		for j, c := range coefs {
			lo[j] = c
		}
		lo[v] = -1
		p.LP.AddConstraint(lo, lp.GE, 0, name+"-lo") // sum >= chosen
		hi := map[int]float64{}
		for j, c := range coefs {
			hi[j] = c
		}
		hi[v] = float64(cnt - 1)
		p.LP.AddConstraint(hi, lp.LE, float64(cnt), name+"-hi") // sum <= 1 if chosen
	}
	for _, fp := range m.fports {
		portDegree(fp.At, m.fpVar[fp.ID], "eq13-"+fp.ID)
	}
	for _, wp := range m.wports {
		portDegree(wp.At, m.wpVar[wp.ID], "eq13-"+wp.ID)
	}

	// Eq. 14: occupied non-port cells have exactly two occupied
	// neighbours (chosen ports count as neighbours).
	for _, c := range m.cells {
		v := m.cellVar[c]
		coefs := map[int]float64{}
		cnt := 0
		for _, q := range c.Neighbors() {
			if j, ok := m.cellVar[q]; ok {
				coefs[j] += 1
				cnt++
				continue
			}
			if pt := m.chip.PortAt(q); pt != nil {
				if j, ok := m.fpVar[pt.ID]; ok && pt.Kind == grid.FlowPort {
					coefs[j] += 1
					cnt++
				} else if j, ok := m.wpVar[pt.ID]; ok && pt.Kind == grid.WastePort {
					coefs[j] += 1
					cnt++
				}
			}
		}
		if cnt < 2 {
			// Dead-end cell can never be on a path.
			p.LP.AddConstraint(map[int]float64{v: 1}, lp.EQ, 0, fmt.Sprintf("eq14-deadend-%v", c))
			continue
		}
		lo := map[int]float64{}
		for j, cf := range coefs {
			lo[j] = cf
		}
		lo[v] += -2
		p.LP.AddConstraint(lo, lp.GE, 0, fmt.Sprintf("eq14-lo-%v", c))
		hi := map[int]float64{}
		for j, cf := range coefs {
			hi[j] = cf
		}
		hi[v] += float64(cnt - 2)
		p.LP.AddConstraint(hi, lp.LE, float64(cnt), fmt.Sprintf("eq14-hi-%v", c))
	}

	// Eq. 15: all targets covered.
	for _, t := range m.targets {
		p.LP.AddConstraint(map[int]float64{m.cellVar[t]: 1}, lp.EQ, 1, fmt.Sprintf("eq15-%v", t))
	}

	// Lazy connectivity cuts from earlier rounds.
	for i, cut := range cuts {
		rhs := -1.0
		coefs := map[int]float64{}
		for v, cf := range cut {
			coefs[v] = cf
			rhs += cf
		}
		p.LP.AddConstraint(coefs, lp.LE, rhs, fmt.Sprintf("cut-%d", i))
	}
	return p
}

// extract reads the solution: either a valid plan, or a connectivity cut
// (the y-variables of a component disconnected from the chosen port).
func (m *model) extract(x []float64) (Plan, map[int]float64) {
	sel := map[geom.Point]bool{}
	for _, c := range m.cells {
		if x[m.cellVar[c]] > 0.5 {
			sel[c] = true
		}
	}
	var fp, wp *grid.Port
	for _, f := range m.fports {
		if x[m.fpVar[f.ID]] > 0.5 {
			fp = f
		}
	}
	for _, w := range m.wports {
		if x[m.wpVar[w.ID]] > 0.5 {
			wp = w
		}
	}
	// Walk from the flow port through selected cells.
	var cellsInPath []geom.Point
	cellsInPath = append(cellsInPath, fp.At)
	visited := map[geom.Point]bool{fp.At: true}
	cur := fp.At
	for {
		var next geom.Point
		found := false
		for _, q := range cur.Neighbors() {
			if visited[q] {
				continue
			}
			if sel[q] {
				next, found = q, true
				break
			}
			if q == wp.At {
				next, found = q, true
				break
			}
		}
		if !found {
			break
		}
		cellsInPath = append(cellsInPath, next)
		visited[next] = true
		cur = next
		if cur == wp.At {
			break
		}
	}
	// Any selected cell not visited forms a disconnected component:
	// emit a cut forbidding that exact component.
	var orphan []geom.Point
	for c := range sel {
		if !visited[c] {
			orphan = append(orphan, c)
		}
	}
	if len(orphan) > 0 {
		// Collect one connected component of the orphans.
		comp := component(orphan[0], sel, visited)
		cut := map[int]float64{}
		for _, c := range comp {
			cut[m.cellVar[c]] = 1
		}
		return Plan{}, cut
	}
	if cur != wp.At {
		// Walk died before the waste port (should not happen when the
		// degree constraints hold); forbid the whole selection.
		cut := map[int]float64{}
		for c := range sel {
			cut[m.cellVar[c]] = 1
		}
		return Plan{}, cut
	}
	return Plan{Path: grid.NewPath(cellsInPath...), FlowPort: fp, WastePort: wp}, nil
}

func component(start geom.Point, sel, exclude map[geom.Point]bool) []geom.Point {
	seen := map[geom.Point]bool{start: true}
	stack := []geom.Point{start}
	var out []geom.Point
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, p)
		for _, q := range p.Neighbors() {
			if sel[q] && !exclude[q] && !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return out
}
