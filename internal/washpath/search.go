package washpath

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/solve"
)

// buildsTotal counts path searches, resolved once at package load. The
// span, the counter and the "wash-path[<N>t r0]" label keep the names of
// the ILP the search replaced.
var buildsTotal = obs.Default().Counter("pdw_washpath_ilps_total")

// searchPath finds the shortest Eqs. 12-15 path over the targets that
// is shorter than heur (nil: no heuristic), under opts.TimeLimit and
// ctx, and records the search in opts.Trace. It returns heur when
// nothing shorter exists or none was found in time, and an error
// wrapping solve.ErrInfeasible or solve.ErrBudgetExceeded when it has
// no path at all.
func searchPath(ctx context.Context, chip *grid.Chip, targets []geom.Point, opts Options, heur *Plan) (plan Plan, err error) {
	limit := opts.TimeLimit
	if limit <= 0 {
		limit = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	ctx, span := obs.Start(ctx, "washpath.ilp", obs.A("targets", len(targets)))
	s := &pathSearch{Tally: solve.NewTally(ctx, fmt.Sprintf("wash-path[%dt r0]", len(targets))), inc: inf}

	// A cap that expired before the search leaves the heuristic
	// unproven; a model the static checks reject has no path at all.
	var m *pathModel
	feasible := false
	if ctx.Err() != nil {
		s.Stopped = true
	} else if m, feasible = newPathModel(chip, targets); feasible {
		if heur != nil {
			s.inc = heur.Path.Len()
			s.Record(float64(s.inc))
		}
		s.run(m)
	}

	have := s.best != nil || heur != nil
	status := "infeasible"
	switch {
	case s.Stopped && have:
		status = "feasible(limit)"
	case s.Stopped:
		status = "limit"
	case have && feasible:
		status = "optimal"
	}
	stat := s.Done(status)
	if m != nil {
		stat.Vars, stat.IntVars, stat.Constraints = m.vars, m.vars, m.rows
	}
	opts.Trace.AddMILP(stat)
	buildsTotal.Inc()
	defer func() {
		if span != nil {
			span.SetAttr("nodes", s.Nodes)
			span.SetAttr("status", status)
			span.SetAttr("ok", err == nil)
			span.End()
		}
	}()

	switch {
	case s.best != nil:
		plan = Plan{
			Path:     grid.NewPath(s.best...),
			FlowPort: chip.PortAt(s.best[0]), WastePort: chip.PortAt(s.best[len(s.best)-1]),
			Exact: true, Optimal: !s.Stopped,
		}
		if err := plan.Path.ValidateComplete(chip); err != nil {
			return Plan{}, fmt.Errorf("washpath: search produced invalid path: %w", err)
		}
		if !plan.Path.Covers(targets) {
			return Plan{}, fmt.Errorf("washpath: search path misses targets")
		}
		return plan, nil
	case heur != nil:
		plan = *heur
		plan.Exact, plan.Optimal = !s.Stopped, !s.Stopped
		return plan, nil
	case s.Stopped:
		return Plan{}, fmt.Errorf("washpath: search stopped without a path: %w", solve.ErrBudgetExceeded)
	}
	return Plan{}, fmt.Errorf("washpath: no Eqs. 12-15 path: %w", solve.ErrInfeasible)
}

// inf is an unreached distance, beyond any path length.
const inf = 1 << 20

// Cell kinds of a path model.
const (
	kOff    uint8 = iota // on no Eqs. 12-15 path
	kFree                // a cell the path may occupy that is not a target
	kTarget              // a target cell
	kFlow                // a flow port the path may start at
	kWaste               // a waste port the path may end at
)

// dpSegs is the most segments for which the lower bound is the exact
// tour over them (memoized over subsets); beyond it a weaker bound is
// used.
const dpSegs = 10

// pathModel is the Eqs. 12-15 model of one build over the chip's dense
// cell indices i = y*W + x.
//
// In an Eq. 14 path two cells are grid neighbours only when they are
// consecutive, so the targets induce a linear forest: each component
// (a segment) is walked end to end, in one of two orientations. The
// path is therefore a flow port, then legs of free cells alternating
// with the segments, then a waste port.
type pathModel struct {
	w, h  int32
	kind  []uint8
	segOf []int16   // a target's segment, -1 elsewhere
	segs  [][]int32 // each segment's cells, end to end
	flows []int32   // the flow ports, in chip order
	// to[2s+o][i] is the fewest steps from end o of segment s (0: its
	// first cell, 1: its last) to i through free cells only (i itself
	// may be any cell or port); toWaste[i] the same to the nearest
	// waste port. inf: unreached.
	to      [][]int32
	toWaste []int32
	// memo[mask*2*len(segs)+end] caches tour(end, mask); -1: unknown.
	// With more than dpSegs segments there is no memo, and toAll and
	// toAllWaste are to and toWaste through target cells too.
	memo       []int32
	toAll      [][]int32
	toAllWaste []int32
	// vars and rows size the path ILP the model stands for.
	vars, rows int
}

// newPathModel builds the model of the targets on chip. It reports
// false when static checks prove that no Eqs. 12-15 path exists: the
// targets are not a linear forest, a target is a dead end, or no flow
// and waste port connect to every target.
func newPathModel(chip *grid.Chip, targets []geom.Point) (*pathModel, bool) {
	w, h := int32(chip.W), int32(chip.H)
	n := w * h
	m := &pathModel{w: w, h: h, kind: make([]uint8, n), segOf: make([]int16, n)}
	cells, ports := 0, 0
	for i := range n {
		m.segOf[i] = -1
		p := geom.Pt(int(i%w), int(i/w))
		switch pt := chip.PortAt(p); {
		case !chip.Routable(p):
		case pt != nil && pt.Kind == grid.FlowPort:
			m.kind[i], ports = kFlow, ports+1
		case pt != nil:
			m.kind[i], ports = kWaste, ports+1
		case chip.DeviceAt(p) == nil:
			m.kind[i], cells = kFree, cells+1
		}
	}
	for _, t := range targets {
		i := int32(t.Y)*w + int32(t.X)
		if m.kind[i] != kFree {
			cells++ // a target device cell
		}
		m.kind[i] = kTarget
	}
	m.vars = cells + ports
	m.rows = 2 + 2*ports + 2*cells + len(targets)

	// Linear forest: walk each segment from an end; a target left over
	// lies on a cycle.
	deg := func(i int32) int {
		d := 0
		for _, q := range m.nb(i) {
			if q >= 0 && m.kind[q] == kTarget {
				d++
			}
		}
		return d
	}
	for _, t := range targets {
		if deg(int32(t.Y)*w+int32(t.X)) > 2 {
			return m, false
		}
	}
	walked := 0
	for i := range n {
		if m.kind[i] != kTarget || m.segOf[i] >= 0 || deg(i) == 2 {
			continue
		}
		id := int16(len(m.segs))
		var seg []int32
		for prev, cur := int32(-1), i; cur >= 0; {
			m.segOf[cur] = id
			seg = append(seg, cur)
			next := int32(-1)
			for _, q := range m.nb(cur) {
				if q >= 0 && q != prev && m.kind[q] == kTarget {
					next = q
				}
			}
			prev, cur = cur, next
		}
		m.segs = append(m.segs, seg)
		walked += len(seg)
	}
	if walked != len(targets) {
		return m, false
	}

	// A free cell next to an inner segment cell or to three targets, or
	// a port next to an inner cell or to two targets, would give some
	// cell a third path neighbour.
	for i := range n {
		k := m.kind[i]
		if k != kFree && k != kFlow && k != kWaste {
			continue
		}
		nt, inner := 0, false
		for _, q := range m.nb(i) {
			if q >= 0 && m.kind[q] == kTarget {
				nt++
				inner = inner || deg(q) == 2
			}
		}
		if inner || k == kFree && nt >= 3 || k != kFree && nt >= 2 {
			m.kind[i] = kOff
		}
	}
	if !m.pruneDeadEnds() {
		return m, false
	}

	// Everything the path may use lies in the component of the targets.
	reach := m.steps(make([]int32, n), true, m.segs[0][0])
	hasWaste := false
	for i, k := range m.kind {
		switch {
		case k == kOff:
		case reach[i] == inf:
			if k == kTarget {
				return m, false
			}
			m.kind[i] = kOff
		case k == kWaste:
			hasWaste = true
		}
	}
	for _, fp := range chip.FlowPorts() {
		if i := int32(fp.At.Y)*w + int32(fp.At.X); m.kind[i] == kFlow {
			m.flows = append(m.flows, i)
		}
	}
	if len(m.flows) == 0 || !hasWaste {
		return m, false
	}

	var wastes []int32
	for i, k := range m.kind {
		if k == kWaste {
			wastes = append(wastes, int32(i))
		}
	}
	m.to, m.toWaste = m.ends(false), m.steps(make([]int32, n), false, wastes...)
	if len(m.segs) <= dpSegs {
		m.memo = make([]int32, (1<<len(m.segs))*2*len(m.segs))
		for i := range m.memo {
			m.memo[i] = -1
		}
	} else {
		m.toAll, m.toAllWaste = m.ends(true), m.steps(make([]int32, n), true, wastes...)
	}
	return m, true
}

// ends returns the steps tables of every segment end, indexed 2s+o.
func (m *pathModel) ends(viaTargets bool) [][]int32 {
	n := len(m.kind)
	out := make([][]int32, 2*len(m.segs))
	for s, seg := range m.segs {
		out[2*s] = m.steps(make([]int32, n), viaTargets, seg[0])
		out[2*s+1] = out[2*s]
		if len(seg) > 1 {
			out[2*s+1] = m.steps(make([]int32, n), viaTargets, seg[len(seg)-1])
		}
	}
	return out
}

// nb returns i's neighbours in N, E, S, W order, -1 off the grid.
func (m *pathModel) nb(i int32) [4]int32 {
	x, y := i%m.w, i/m.w
	nb := [4]int32{-1, -1, -1, -1}
	if y > 0 {
		nb[0] = i - m.w
	}
	if x < m.w-1 {
		nb[1] = i + 1
	}
	if y < m.h-1 {
		nb[2] = i + m.w
	}
	if x > 0 {
		nb[3] = i - 1
	}
	return nb
}

// pruneDeadEnds turns off, until none is left, every free cell with
// fewer than two usable neighbours and every port with no usable cell
// next to it. It reports false when a target is such a dead end.
func (m *pathModel) pruneDeadEnds() bool {
	var work []int32
	for i := range m.kind {
		if m.kind[i] != kOff {
			work = append(work, int32(i))
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		k := m.kind[i]
		if k == kOff {
			continue
		}
		live := 0
		for _, q := range m.nb(i) {
			if q >= 0 && m.kind[q] != kOff && (k == kFree || k == kTarget || m.kind[q] == kFree || m.kind[q] == kTarget) {
				live++
			}
		}
		if k == kFree && live >= 2 || k == kTarget && live >= 2 || (k == kFlow || k == kWaste) && live >= 1 {
			continue
		}
		if k == kTarget {
			return false
		}
		m.kind[i] = kOff
		for _, q := range m.nb(i) {
			if q >= 0 && m.kind[q] != kOff {
				work = append(work, q)
			}
		}
	}
	return true
}

// point is the cell of index i.
func (m *pathModel) point(i int32) geom.Point { return geom.Pt(int(i%m.w), int(i/m.w)) }

// steps fills d with the fewest steps from the sources to every cell
// and port, moving on only from the sources, from free cells and, when
// viaTargets, from target cells, and returns it; unreached entries are
// inf.
func (m *pathModel) steps(d []int32, viaTargets bool, srcs ...int32) []int32 {
	for i := range d {
		d[i] = inf
	}
	queue := make([]int32, 0, len(d))
	for _, s := range srcs {
		d[s] = 0
		queue = append(queue, s)
	}
	for h := 0; h < len(queue); h++ {
		p := queue[h]
		if k := m.kind[p]; h >= len(srcs) && k != kFree && (k != kTarget || !viaTargets) {
			continue
		}
		for _, q := range m.nb(p) {
			if q >= 0 && m.kind[q] != kOff && d[q] == inf {
				d[q] = d[p] + 1
				queue = append(queue, q)
			}
		}
	}
	return d
}

// endCell is the cell of segment end e (2s+o).
func (m *pathModel) endCell(e int) int32 {
	seg := m.segs[e/2]
	if e%2 == 0 {
		return seg[0]
	}
	return seg[len(seg)-1]
}

// tour is the fewest steps from x through every segment of mask, each
// walked end to end, to a waste port, with legs measured through free
// cells. It ignores that legs must avoid each other, so it is a lower
// bound on the rest of any path at x.
func (m *pathModel) tour(x int32, mask uint32) int {
	if mask == 0 {
		return int(m.toWaste[x])
	}
	best := inf
	for rest := mask; rest != 0; rest &= rest - 1 {
		s := bits.TrailingZeros32(rest)
		walk := len(m.segs[s]) - 1
		for o := range 2 {
			if d := int(m.to[2*s+o][x]); d < best {
				best = min(best, d+walk+m.tourFrom(2*s+1-o, mask&^(1<<s)))
			}
		}
	}
	return best
}

// tourFrom is tour from segment end e, memoized.
func (m *pathModel) tourFrom(e int, mask uint32) int {
	k := int(mask)*2*len(m.segs) + e
	if v := m.memo[k]; v >= 0 {
		return int(v)
	}
	v := min(m.tour(m.endCell(e), mask), inf)
	m.memo[k] = int32(v)
	return v
}

// pathSearch is the state of one search: the path placed so far, how
// many placed nodes touch each cell, and the segments not yet entered.
type pathSearch struct {
	m      *pathModel
	onPath []bool
	// touch counts the placed nodes next to each cell; the flow port
	// counts for cells only, so a waste port next to it stays usable.
	touch []uint8
	path  []int32 // the flow port, then the placed cells
	// segLeft counts each segment's cells not yet placed; exit is the
	// end an entered segment leaves by; mask has a bit per segment not
	// yet entered (read only with at most dpSegs segments).
	segLeft []int
	exit    []int32
	mask    uint32
	left    int // targets not yet placed
	open    int // segments not yet entered

	solve.Tally
	inc  int          // the incumbent's length; only shorter paths count
	best []geom.Point // the shortest path found, ports included
}

// run searches from every flow port in chip order.
func (s *pathSearch) run(m *pathModel) {
	n := len(m.kind)
	s.m = m
	s.onPath = make([]bool, n)
	s.touch = make([]uint8, n)
	s.segLeft = make([]int, len(m.segs))
	s.exit = make([]int32, len(m.segs))
	for i, seg := range m.segs {
		s.segLeft[i] = len(seg)
		s.left += len(seg)
	}
	s.open = len(m.segs)
	s.mask = 1<<len(m.segs) - 1
	for _, fp := range m.flows {
		lb := 1 + s.rest(fp)
		if lb >= s.inc {
			s.Pruned++
			continue
		}
		s.place(fp)
		s.dfs(fp)
		s.unplace(fp)
		if s.Stopped {
			return
		}
	}
}

// rest is a lower bound on the steps from x, the path's end outside any
// partly walked segment, to a waste port through every segment not yet
// entered.
func (s *pathSearch) rest(x int32) int {
	m := s.m
	if s.open == 0 {
		return int(m.toWaste[x])
	}
	if m.memo != nil {
		return m.tour(x, s.mask)
	}
	// Many segments: the larger of the cheapest first leg plus every
	// open segment's walk, the legs between them (two steps at least,
	// since segments are not adjacent) and the way out; and the costliest
	// open segment visited alone, reached and left through any cells
	// (other segments may lie on the way).
	first, last, walk, alone := inf, inf, 0, 0
	for sg, seg := range m.segs {
		if s.segLeft[sg] < len(seg) {
			continue
		}
		w := len(seg) - 1
		walk += w
		one := inf
		for o := range 2 {
			exit := m.endCell(2*sg + 1 - o)
			first = min(first, int(m.to[2*sg+o][x]))
			last = min(last, int(m.toWaste[exit]))
			one = min(one, int(m.toAll[2*sg+o][x])+w+int(m.toAllWaste[exit]))
		}
		alone = max(alone, one)
	}
	return max(first+walk+2*(s.open-1)+last, alone)
}

// lower is a lower bound on the steps from the path's end e to a waste
// port through every target not yet placed.
func (s *pathSearch) lower(e int32) int {
	if sg := s.m.segOf[e]; sg >= 0 && s.segLeft[sg] > 0 {
		return s.segLeft[sg] + s.rest(s.exit[sg])
	}
	return s.rest(e)
}

// place appends node i to the path.
func (s *pathSearch) place(i int32) {
	m := s.m
	s.onPath[i] = true
	s.path = append(s.path, i)
	port := m.kind[i] == kFlow
	for _, q := range m.nb(i) {
		if q >= 0 && (!port || m.kind[q] == kFree || m.kind[q] == kTarget) {
			s.touch[q]++
		}
	}
	if sg := m.segOf[i]; sg >= 0 {
		seg := m.segs[sg]
		if s.segLeft[sg] == len(seg) {
			s.open--
			s.mask &^= 1 << sg
			s.exit[sg] = seg[0]
			if seg[0] == i {
				s.exit[sg] = seg[len(seg)-1]
			}
		}
		s.segLeft[sg]--
		s.left--
	}
}

// unplace undoes place(i), i being the path's end.
func (s *pathSearch) unplace(i int32) {
	m := s.m
	s.onPath[i] = false
	s.path = s.path[:len(s.path)-1]
	port := m.kind[i] == kFlow
	for _, q := range m.nb(i) {
		if q >= 0 && (!port || m.kind[q] == kFree || m.kind[q] == kTarget) {
			s.touch[q]--
		}
	}
	if sg := m.segOf[i]; sg >= 0 {
		s.segLeft[sg]++
		s.left++
		if s.segLeft[sg] == len(m.segs[sg]) {
			s.open++
			s.mask |= 1 << sg
		}
	}
}

// dfs explores the paths extending the current one, whose end is e and
// whose length plus the lower bound at e is below the incumbent.
//
// A path cell's grid neighbours on the path are exactly its two path
// neighbours, so a cell may join only while the end is the one placed
// node it touches, and a target next to the end must come next. Free
// cells are tried lowest bound first, ties in N, E, S, W order.
func (s *pathSearch) dfs(e int32) {
	if !s.Node() {
		return
	}
	m := s.m
	n := len(s.path) // nodes placed
	if s.left == 0 {
		// Eq. 13 at the waste end: a port next to e and to no other
		// placed cell. Any longer way out is no better.
		for _, q := range m.nb(e) {
			if q >= 0 && m.kind[q] == kWaste && s.touch[q] == 1 {
				s.found(q)
				return
			}
		}
	}

	forced, targets := int32(-1), 0
	for _, q := range m.nb(e) {
		if q >= 0 && m.kind[q] == kTarget && !s.onPath[q] {
			forced = q
			targets++
		}
	}
	if targets > 0 {
		sg := m.segOf[forced]
		seg := m.segs[sg]
		entering := s.segLeft[sg] == len(seg)
		if targets > 1 || s.touch[forced] != 1 || entering && forced != seg[0] && forced != seg[len(seg)-1] {
			s.Pruned++
			return
		}
		s.place(forced)
		if n+1+s.lower(forced) < s.inc {
			s.dfs(forced)
		} else {
			s.Pruned++
		}
		s.unplace(forced)
		return
	}

	var kids [4]int32
	var bounds [4]int
	k := 0
	for _, q := range m.nb(e) {
		if q < 0 || m.kind[q] != kFree || s.onPath[q] || s.touch[q] != 1 {
			continue
		}
		b := n + 1 + s.rest(q)
		if b >= s.inc {
			s.Pruned++
			continue
		}
		j := k
		for ; j > 0 && bounds[j-1] > b; j-- {
			kids[j], bounds[j] = kids[j-1], bounds[j-1]
		}
		kids[j], bounds[j] = q, b
		k++
	}
	for j := range k {
		if bounds[j] >= s.inc {
			s.Pruned++
			continue
		}
		s.place(kids[j])
		s.dfs(kids[j])
		s.unplace(kids[j])
		if s.Stopped {
			return
		}
	}
}

// found records the current path, closed at waste port wp, as the
// incumbent.
func (s *pathSearch) found(wp int32) {
	if len(s.path)+1 >= s.inc {
		return
	}
	s.inc = len(s.path) + 1
	s.best = s.best[:0]
	for _, i := range s.path {
		s.best = append(s.best, s.m.point(i))
	}
	s.best = append(s.best, s.m.point(wp))
	s.Record(float64(s.inc))
}
