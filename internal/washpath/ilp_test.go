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
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/solve"
)

// maxCuts bounds the ILP's lazy connectivity rounds.
const maxCuts = 20

// buildILP is the differential oracle of the wash-path search: the path
// ILP of Sec. III as the paper states it, solved by milp's LP branch &
// bound under limit.
//
//   - Eq. 12: exactly one flow port and one waste port are allocated;
//   - Eq. 13: exactly one cell adjacent to each chosen port is occupied;
//   - Eq. 14: every occupied cell has exactly two occupied neighbours,
//     chosen ports included;
//   - Eq. 15: every wash target is covered;
//   - objective: minimize the number of occupied cells.
//
// Eq. 14 alone admits solutions with disconnected cycles, so the solver
// adds lazy connectivity cuts: whenever the selection splits into
// several components, one component not containing the chosen flow port
// is forbidden and the ILP is re-solved. Cells of devices that are not
// themselves targets are excluded. With a heuristic of length L, cells
// farther than L-1 hops from some target are pruned: they can only lie
// on paths of L cells or more, so the pruned model's optimum equals the
// full model's wherever that is below L. It returns an error wrapping
// solve.ErrInfeasible when the (pruned) model has no solution and
// solve.ErrBudgetExceeded when limit expires first.
func buildILP(ctx context.Context, chip *grid.Chip, req Request, limit time.Duration, heur Plan, haveHeur bool) (Plan, error) {
	deadline := time.Now().Add(limit)
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
		remain := time.Until(deadline)
		if remain <= 0 || cp.Err() != nil {
			return Plan{}, fmt.Errorf("washpath: %w during cut round %d", solve.ErrBudgetExceeded, round)
		}
		prob := m.problem(extraCuts)
		res, err := milp.SolveContext(ctx, prob, milp.Options{TimeLimit: remain})
		if err != nil {
			return Plan{}, err
		}
		if res.Status == milp.Infeasible {
			return Plan{}, fmt.Errorf("washpath: ILP %w", solve.ErrInfeasible)
		}
		if res.Status != milp.Optimal && res.Status != milp.Feasible {
			return Plan{}, fmt.Errorf("washpath: ILP status %v: %w", res.Status, solve.ErrBudgetExceeded)
		}
		plan, cut := m.extract(res.X)
		if cut != nil {
			extraCuts = append(extraCuts, cut)
			continue
		}
		if err := plan.Path.ValidateComplete(chip); err != nil {
			return Plan{}, fmt.Errorf("washpath: ILP produced invalid path: %w", err)
		}
		if !plan.Path.Covers(req.Targets) {
			return Plan{}, fmt.Errorf("washpath: ILP path misses targets")
		}
		if res.Status != milp.Optimal {
			return Plan{}, fmt.Errorf("washpath: ILP not closed: %w", solve.ErrBudgetExceeded)
		}
		plan.Optimal = true
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
// enumeration poll the checkpoint.
func newModel(chip *grid.Chip, req Request, heur Plan, haveHeur bool, cp *solve.Checkpoint) (*model, error) {
	m := &model{
		chip: chip, targets: req.Targets,
		cellVar: map[geom.Point]int{},
		fpVar:   map[string]int{}, wpVar: map[string]int{},
		heur: heur, haveHeur: haveHeur,
	}
	// Device cells that are not targets are forbidden.
	forbidden := func(p geom.Point) bool { return chip.DeviceAt(p) != nil && !slices.Contains(req.Targets, p) }

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
			if err := cp.Err(); err != nil {
				return nil, fmt.Errorf("washpath: %w during model build: %w", solve.ErrBudgetExceeded, err)
			}
			d := route.Distances(chip, t, route.Options{AvoidDevices: true, Exempt: req.Targets})
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
		if chip.PortAt(p) != nil || forbidden(p) {
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
