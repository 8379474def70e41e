// Package replan rebuilds an assay schedule after wash operations have
// been decided: it derives the precedence DAG that the time-window ILP
// of Sec. III constrains (operation dependencies, transport/removal
// sequencing, wash-after-contamination and wash-before-reuse edges,
// ψ-integration edges of Eq. 21), fixes the relative order of
// conflicting base tasks to the input schedule's order, and provides a
// greedy earliest-fit rebuild used directly by the DAWO baseline and as
// the ILP's initial incumbent in PDW. Fixpoint is the wash-insertion
// loop PDW, DAWO and the demand-driven heuristic share: it rebuilds
// greedily after every round of washes until nothing is left to wash.
package replan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
)

// WashSpec describes one decided wash operation w_j.
type WashSpec struct {
	ID string
	// Path is the complete wash path (Eqs. 12-15).
	Path grid.Path
	// Targets are the contaminated cells the wash covers.
	Targets []geom.Point
	// Duration is t(w_j) of Eq. 17, in whole seconds.
	Duration int
	// Culprits are base task IDs whose residue the wash removes; the
	// wash must start after each of them ends (Eq. 16's t_{j,e}).
	Culprits []string
	// Before are base task IDs that require cleanliness; the wash must
	// end before each of them starts (Eq. 16's t_{j,s}).
	Before []string
	// Integrates lists removal task IDs absorbed into the wash (ψ=1,
	// Eq. 21): they are skipped and their excess cells flushed by the
	// wash instead.
	Integrates []string
}

// Plan is the rebuilt problem: tasks (base clones plus washes), the
// precedence DAG and one topological order of it.
type Plan struct {
	Base   *schedule.Schedule
	Washes []WashSpec

	// Tasks are the cloned tasks in a deterministic order; washes last.
	Tasks []*schedule.Task
	// Index maps task ID to its position in Tasks.
	Index map[string]int
	// Durations are the execution durations (0 for integrated removals).
	Durations []int
	// Edges are precedence pairs (i before j): end_i <= start_j, sorted
	// and without duplicates.
	Edges [][2]int
	// Order lists task indices topologically sorted by Edges, ties
	// broken by base start time then ID.
	Order []int

	// cells is the index of the chip cells each task holds.
	cells *schedule.CellIndex
}

// Build assembles the plan. It fails when the edges close a cycle,
// naming one.
func Build(base *schedule.Schedule, washes []WashSpec) (*Plan, error) {
	p, err := assemble(base, washes)
	if err != nil {
		return nil, err
	}
	x, err := schedule.IndexCells(base.Chip, p.Tasks)
	if err != nil {
		return nil, err
	}
	nBase := len(p.Tasks) - len(washes)
	// Conflict-capable base pairs keep their base order (the free ε of
	// Eq. 8 is fixed to the synthesized order; see DESIGN.md).
	if err := p.chainBase(x, nBase); err != nil {
		return nil, err
	}
	slices.SortFunc(p.Edges, cmpPair)
	p.Edges = slices.Compact(p.Edges)
	p.cells = x
	if err := p.sortTopologically(); err != nil {
		return nil, err
	}
	return p, nil
}

// assemble clones the tasks and adds the precedence edges that task
// provenance and the washes' windows imply, before the base order.
func assemble(base *schedule.Schedule, washes []WashSpec) (*Plan, error) {
	p := &Plan{Base: base, Washes: washes, Index: map[string]int{}}
	integrated := map[string]string{}
	for _, w := range washes {
		for _, rid := range w.Integrates {
			if prev, dup := integrated[rid]; dup {
				return nil, fmt.Errorf("replan: removal %s integrated into both %s and %s", rid, prev, w.ID)
			}
			integrated[rid] = w.ID
		}
	}

	// Clone base tasks in base (start, ID) order for determinism.
	baseTasks := base.SortedByStart()
	for _, t := range baseTasks {
		cp := *t
		cp.Path = grid.NewPath(append([]geom.Point(nil), t.Path.Cells...)...)
		cp.WashTargets = append([]geom.Point(nil), t.WashTargets...)
		cp.ContamCells = append([]geom.Point(nil), t.ContamCells...)
		cp.ExcessCells = append([]geom.Point(nil), t.ExcessCells...)
		cp.SensitiveCells = append([]geom.Point(nil), t.SensitiveCells...)
		if wid, ok := integrated[t.ID]; ok {
			if t.Kind != schedule.Removal {
				return nil, fmt.Errorf("replan: %s is not a removal but was integrated", t.ID)
			}
			cp.Integrated = true
			cp.IntegratedInto = wid
		}
		p.add(&cp, cp.MinDuration)
	}
	// Wash tasks.
	for _, w := range washes {
		if w.Duration <= 0 {
			return nil, fmt.Errorf("replan: wash %s has duration %d", w.ID, w.Duration)
		}
		wt := &schedule.Task{
			ID: w.ID, Kind: schedule.Wash,
			Path:        grid.NewPath(append([]geom.Point(nil), w.Path.Cells...)...),
			Fluid:       "buffer",
			MinDuration: w.Duration,
			WashTargets: append([]geom.Point(nil), w.Targets...),
		}
		p.add(wt, w.Duration)
	}

	if err := p.buildEdges(integrated); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) add(t *schedule.Task, dur int) {
	p.Index[t.ID] = len(p.Tasks)
	p.Tasks = append(p.Tasks, t)
	if t.Kind == schedule.Removal && t.Integrated {
		dur = 0
	}
	p.Durations = append(p.Durations, dur)
}

func (p *Plan) edge(from, to string) error {
	i, ok := p.Index[from]
	if !ok {
		return fmt.Errorf("replan: unknown task %q in precedence edge", from)
	}
	j, ok := p.Index[to]
	if !ok {
		return fmt.Errorf("replan: unknown task %q in precedence edge", to)
	}
	if i == j {
		return fmt.Errorf("replan: self edge on %q", from)
	}
	p.Edges = append(p.Edges, [2]int{i, j})
	return nil
}

func (p *Plan) buildEdges(integrated map[string]string) error {
	base := p.Base
	// Structural edges (Eqs. 2, 4, 5): derived from task provenance.
	for _, t := range p.Tasks {
		switch t.Kind {
		case schedule.Transport:
			if t.EdgeFrom != "" { // product transport after producer op
				if err := p.edge("op-"+t.EdgeFrom, t.ID); err != nil {
					return err
				}
			}
			if t.EdgeTo != "" { // before consumer op
				if err := p.edge(t.ID, "op-"+t.EdgeTo); err != nil {
					return err
				}
			}
		case schedule.Removal:
			// After its transport, before the consumer op. The matching
			// transport is tr-<from>-<to> or inj-<to>-<i>; removals for
			// injections are named rm-inj-<op>-<i>.
			trID, ok := TransportIDForRemoval(t.ID, t.EdgeFrom, t.EdgeTo)
			if !ok {
				return fmt.Errorf("replan: cannot derive transport for removal %s", t.ID)
			}
			if !t.Integrated {
				if err := p.edge(trID, t.ID); err != nil {
					return err
				}
				if t.EdgeTo != "" {
					if err := p.edge(t.ID, "op-"+t.EdgeTo); err != nil {
						return err
					}
				}
			} else {
				// ψ=1: the wash replaces the removal (Eq. 21): wash after
				// the transport, before the consumer op.
				wid := integrated[t.ID]
				if err := p.edge(trID, wid); err != nil {
					return err
				}
				if t.EdgeTo != "" {
					if err := p.edge(wid, "op-"+t.EdgeTo); err != nil {
						return err
					}
				}
				// The removal itself trails the wash (zero duration).
				if err := p.edge(wid, t.ID); err != nil {
					return err
				}
			}
		case schedule.WasteDisposal:
			if t.EdgeFrom != "" {
				if err := p.edge("op-"+t.EdgeFrom, t.ID); err != nil {
					return err
				}
			}
		}
	}
	// Wash window edges (Eq. 16). A culprit that is itself an integrated
	// removal never executes and deposits nothing, so its ordering edge
	// is dropped (its excess is flushed by the absorbing wash instead).
	for wi := range p.Washes {
		w := &p.Washes[wi]
		for _, c := range w.Culprits {
			if _, gone := integrated[c]; gone {
				continue
			}
			if err := p.edge(c, w.ID); err != nil {
				return err
			}
		}
		// A wash flushing a device's cells must complete before the next
		// inputs arrive in that device, or the buffer would carry the
		// fresh inputs away. Strengthen Before with the user ops'
		// incoming transports where that stays consistent with the
		// culprit ordering (see DESIGN.md, holding hazards).
		w.Before = p.strengthenBefore(base, w)
		for _, b := range w.Before {
			if err := p.edge(w.ID, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// chainBase orders the active base tasks (the first nBase) that share a
// cell: on each cell, every holder precedes the next one in base order,
// so each conflict-capable pair (two tasks holding a common cell, see
// schedule.CellIndex) is ordered through the chain of a cell both hold.
// Base order is the tasks' (start, end, ID) order, except that
// zero-duration tasks starting together run in descending ID, the order
// the former one-edge-per-pair rule gave them (it put the pair's second
// task first whenever that one ended by the first one's start).
func (p *Plan) chainBase(x *schedule.CellIndex, nBase int) error {
	order := make([]int, 0, nBase)
	for i, t := range p.Tasks[:nBase] {
		if !t.Active() {
			continue
		}
		if t.End < t.Start {
			return fmt.Errorf("replan: task %s has invalid window [%d,%d)", t.ID, t.Start, t.End)
		}
		order = append(order, i)
	}
	for lo := 0; lo < len(order); {
		t, hi := p.Tasks[order[lo]], lo+1
		for t.Start == t.End && hi < len(order) && p.Tasks[order[hi]].Start == t.Start && p.Tasks[order[hi]].End == t.End {
			hi++
		}
		slices.Reverse(order[lo:hi])
		lo = hi
	}
	last := make([]int32, p.Base.Chip.W*p.Base.Chip.H) // last[c]: the previous holder of c, plus one
	for _, i := range order {
		for _, c := range x.Held(i) {
			if l := last[c]; l > 0 {
				p.Edges = append(p.Edges, [2]int{int(l - 1), i})
			}
			last[c] = int32(i + 1)
		}
	}
	return nil
}

// strengthenBefore extends a wash's Before set: when the wash path
// covers cells of a device and an existing Before user is an operation
// on that device, the operation's incoming transports are added too, so
// the buffer never flushes freshly-arrived inputs out of the device.
// A transport is only added when every culprit ends before it starts in
// the base schedule — otherwise the edge would create a cycle and the
// hazard is left to the simulator's holding report.
func (p *Plan) strengthenBefore(base *schedule.Schedule, w *WashSpec) []string {
	covers := map[*grid.Device]bool{}
	for _, c := range w.Targets {
		if d := base.Chip.DeviceAt(c); d != nil {
			covers[d] = true
		}
	}
	if len(covers) == 0 {
		return w.Before
	}
	out := append([]string(nil), w.Before...)
	maxCulpritEnd := 0
	for _, c := range w.Culprits {
		if ct := base.Task(c); ct != nil && ct.End > maxCulpritEnd {
			maxCulpritEnd = ct.End
		}
	}
	for _, b := range w.Before {
		user := base.Task(b)
		if user == nil || user.Kind != schedule.Operation || !covers[user.Device] {
			continue
		}
		for _, t := range base.Tasks() {
			if t.Kind != schedule.Transport || t.EdgeTo != user.OpID {
				continue
			}
			if t.Start < maxCulpritEnd {
				continue // would contradict culprit ordering
			}
			dup := false
			for _, x := range out {
				if x == t.ID {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, t.ID)
			}
		}
	}
	return out
}

// TransportIDForRemoval reconstructs the transport task ID a removal
// follows. Removal IDs are rm-<from>-<to> or rm-inj-<op>-<i>.
func TransportIDForRemoval(rmID, from, to string) (string, bool) {
	if from != "" {
		return "tr-" + from + "-" + to, true
	}
	const pfx = "rm-"
	if len(rmID) > len(pfx) && rmID[:len(pfx)] == pfx {
		return rmID[len(pfx):], true // "rm-inj-o1-1" -> "inj-o1-1"
	}
	return "", false
}

// FreePairs returns the conflict-capable pairs the DAG leaves
// unordered, in (i, j) order: the disjunctions of the time-window
// model, whose orders the optimizer may choose. Base pairs are all
// ordered, so each free pair involves a wash, and as washes come last,
// its second task is one: each wash's cells name its partners. The
// pairs are derived on each call through the transitive closure.
func (p *Plan) FreePairs() [][2]int {
	reach := p.reachability()
	n := len(p.Tasks)
	var out [][2]int
	met := make([]int32, n) // met[i] == j+1: i is already a partner of wash j
	for j := n - len(p.Washes); j < n; j++ {
		for _, c := range p.cells.Held(j) {
			for _, u := range p.cells.Holders(c) {
				i := int(u)
				if i >= j {
					break // a later task pairs with j from its own cells
				}
				if met[i] == int32(j+1) {
					continue
				}
				met[i] = int32(j + 1)
				if !reach.has(i, j) && !reach.has(j, i) {
					out = append(out, [2]int{i, j})
				}
			}
		}
	}
	slices.SortFunc(out, cmpPair)
	return out
}

// cmpPair orders task index pairs lexicographically.
func cmpPair(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }

// closure is a transitive closure over n tasks: one bitset row of
// words uint64s per task.
type closure struct {
	words int
	bits  []uint64
}

// has reports whether j is reachable from i by one or more edges.
func (c closure) has(i, j int) bool {
	return c.bits[i*c.words+j/64]&(1<<(j%64)) != 0
}

// reachability computes the transitive closure of the precedence
// edges in one pass over Order, last task first, so that each
// successor's row is complete before its predecessors read it.
func (p *Plan) reachability() closure {
	n := len(p.Tasks)
	succs := make([][]int, n)
	for _, e := range p.Edges {
		succs[e[0]] = append(succs[e[0]], e[1])
	}
	c := closure{words: (n + 63) / 64}
	c.bits = make([]uint64, n*c.words)
	for k := n - 1; k >= 0; k-- {
		i := p.Order[k]
		row := c.bits[i*c.words : (i+1)*c.words]
		for _, j := range succs[i] {
			row[j/64] |= 1 << (j % 64)
			for w, bits := range c.bits[j*c.words : (j+1)*c.words] {
				row[w] |= bits
			}
		}
	}
	return c
}

// sortTopologically fills Order by Kahn's algorithm, taking the ready
// task with the lowest (base start, ID) first. It fails on cycles.
func (p *Plan) sortTopologically() error {
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
	p.Order = make([]int, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(x, y int) bool { return less(ready[x], ready[y]) })
		v := ready[0]
		ready = ready[1:]
		p.Order = append(p.Order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(p.Order) != n {
		return fmt.Errorf("replan: precedence cycle (%d of %d ordered; stuck: %s)",
			len(p.Order), n, p.describeCycle(indeg))
	}
	return nil
}

// describeCycle walks one cycle among the tasks that never reached
// in-degree zero, for error messages.
func (p *Plan) describeCycle(indeg []int) string {
	stuck := map[int]bool{}
	for i, d := range indeg {
		if d > 0 {
			stuck[i] = true
		}
	}
	adj := map[int][]int{}
	for _, e := range p.Edges {
		if stuck[e[0]] && stuck[e[1]] {
			adj[e[1]] = append(adj[e[1]], e[0]) // predecessors
		}
	}
	// Follow predecessors from an arbitrary stuck node: every stuck node
	// has a stuck predecessor, so the walk must close a cycle.
	for start := range stuck {
		seen := map[int]int{}
		path := []int{start}
		seen[start] = 0
		cur := start
		for len(adj[cur]) > 0 {
			cur = adj[cur][0]
			if at, ok := seen[cur]; ok {
				var ids []string
				for _, v := range path[at:] {
					ids = append(ids, p.Tasks[v].ID)
				}
				ids = append(ids, p.Tasks[cur].ID)
				return fmt.Sprintf("cycle %v", ids)
			}
			seen[cur] = len(path)
			path = append(path, cur)
		}
	}
	return "no explicit cycle found"
}

// Greedy rebuilds the schedule: tasks are placed in Order at the
// earliest conflict-free start after all predecessors end. This is the
// sweep-line style assignment of the DAWO baseline and PDW's ILP
// incumbent.
func (p *Plan) Greedy() (*schedule.Schedule, error) {
	out := schedule.New(p.Base.Chip, p.Base.Assay)
	pl := schedule.NewPlacer(out)
	preds := make([][]int, len(p.Tasks))
	for _, e := range p.Edges {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	ends := make([]int, len(p.Tasks))
	for _, idx := range p.Order {
		tpl := *p.Tasks[idx] // copy, keep plan immutable
		t := &tpl
		ready := 0
		for _, pi := range preds[idx] {
			ready = max(ready, ends[pi])
		}
		if !t.Active() {
			// Integrated removal: trail its wash with zero width.
			t.Start, t.End = ready, ready
			if err := out.Add(t); err != nil {
				return nil, err
			}
		} else if _, err := pl.Place(t, ready, p.Durations[idx]); err != nil {
			return nil, err
		}
		ends[idx] = t.End
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("replan: greedy rebuild invalid: %w", err)
	}
	return out, nil
}

// Apply materializes a schedule from explicit start times (e.g. the ILP
// solution), indexed like Tasks.
func (p *Plan) Apply(starts []int) (*schedule.Schedule, error) {
	if len(starts) != len(p.Tasks) {
		return nil, fmt.Errorf("replan: %d starts for %d tasks", len(starts), len(p.Tasks))
	}
	out := schedule.New(p.Base.Chip, p.Base.Assay)
	for i, tpl := range p.Tasks {
		cp := *tpl
		cp.Start = starts[i]
		cp.End = starts[i] + p.Durations[i]
		if err := out.Add(&cp); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("replan: applied schedule invalid: %w", err)
	}
	return out, nil
}
