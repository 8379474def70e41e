// Package schedule models assay execution procedures: the biochemical
// operations, fluid transportation tasks p_{j,i,1}, excess-fluid removal
// tasks p_{j,i,2}, waste disposals, and wash operations w_j of the paper,
// each with a flow path and a time window. It provides the conflict and
// precedence validation that the ILP constraints of Sec. III encode, the
// evaluation metrics of Sec. IV (T_assay, T_delay, waiting time, total
// wash time), and Gantt rendering in the style of Figs. 2(b)/3.
package schedule

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// TaskKind classifies schedule entries.
type TaskKind int

// Task kinds. Transport covers both reagent injections (in_i -> device)
// and product moves (device -> device); WasteDisposal is the $-style
// removal of a discarded product to a waste port; Removal is the *-style
// excess-fluid removal p_{j,i,2}; Wash is a wash operation w_j.
const (
	Operation TaskKind = iota
	Transport
	Removal
	WasteDisposal
	Wash
)

// String names the task kind.
func (k TaskKind) String() string {
	switch k {
	case Operation:
		return "op"
	case Transport:
		return "transport"
	case Removal:
		return "removal"
	case WasteDisposal:
		return "waste"
	case Wash:
		return "wash"
	}
	return fmt.Sprintf("TaskKind(%d)", int(k))
}

// Fluidic reports whether tasks of this kind occupy a flow path.
func (k TaskKind) Fluidic() bool { return k != Operation }

// Task is one schedule entry. Start/End are in whole seconds with
// half-open semantics: the task occupies [Start, End).
type Task struct {
	ID   string
	Kind TaskKind

	// Start and End are the assigned time window (t^s, t^e).
	Start, End int

	// MinDuration is the minimum execution time: t(o_i) for operations
	// (Eq. 1), T_{j,i,z} for transports/removals (Eqs. 6-7), t(w_j) for
	// washes (Eqs. 17-18). Integrated removals have MinDuration 0.
	MinDuration int

	// OpID and Device are set for Operation tasks.
	OpID   string
	Device *grid.Device

	// Path is the flow path of fluidic tasks.
	Path grid.Path
	// Fluid is the fluid type carried (wash tasks carry buffer).
	Fluid assay.FluidType

	// EdgeFrom/EdgeTo identify the dependency e_{j,i} that spawned a
	// Transport (p_{j,i,1}) or Removal (p_{j,i,2}) task. Reagent
	// injections leave EdgeFrom empty.
	EdgeFrom, EdgeTo string

	// ContamCells are the cells this task leaves contaminated with Fluid
	// when it completes: the plug-traversal segment of a fluidic task, or
	// the device cells of an operation (residue). Wash tasks leave none.
	ContamCells []geom.Point
	// ExcessCells are, on a Transport, the cells where excess fluid is
	// cached at the target device's end (the paper's Sec. II-B) and, on
	// the corresponding Removal, the cells its path must flush.
	ExcessCells []geom.Point
	// SensitiveCells are the cells whose residue would contaminate this
	// task's fluid: the plug-traversal region including the source and
	// target device cells. Waste carriers (Removal/WasteDisposal) and
	// washes are insensitive and leave this nil (the Q=1 case of Eq. 10).
	SensitiveCells []geom.Point

	// WashTargets are the contaminated cells a Wash task must cover.
	WashTargets []geom.Point
	// Integrated marks a Removal merged into a wash operation (ψ=1,
	// Eq. 21); IntegratedInto names the wash task.
	Integrated     bool
	IntegratedInto string
}

// Duration returns End-Start.
func (t *Task) Duration() int { return t.End - t.Start }

// Overlaps reports whether the time windows of t and u intersect with
// positive measure.
func (t *Task) Overlaps(u *Task) bool {
	return t.Start < u.End && u.Start < t.End
}

// Active reports whether the task occupies resources at all: integrated
// removals are subsumed by their wash and hold nothing.
func (t *Task) Active() bool { return !(t.Kind == Removal && t.Integrated) }

// String renders the task compactly.
func (t *Task) String() string {
	return fmt.Sprintf("%s[%s %d-%d]", t.ID, t.Kind, t.Start, t.End)
}

// Schedule is a complete assay execution procedure on a chip.
type Schedule struct {
	Chip  *grid.Chip
	Assay *assay.Assay
	tasks []*Task
	byID  map[string]*Task
}

// New creates an empty schedule for the chip and assay.
func New(c *grid.Chip, a *assay.Assay) *Schedule {
	return &Schedule{Chip: c, Assay: a, byID: map[string]*Task{}}
}

// Add appends a task. IDs must be unique.
func (s *Schedule) Add(t *Task) error {
	if t.ID == "" {
		return fmt.Errorf("schedule: task with empty ID")
	}
	if _, dup := s.byID[t.ID]; dup {
		return fmt.Errorf("schedule: duplicate task %q", t.ID)
	}
	s.tasks = append(s.tasks, t)
	s.byID[t.ID] = t
	return nil
}

// MustAdd is Add that panics on error.
func (s *Schedule) MustAdd(t *Task) *Schedule {
	if err := s.Add(t); err != nil {
		panic(err)
	}
	return s
}

// Tasks returns all tasks in insertion order.
func (s *Schedule) Tasks() []*Task { return s.tasks }

// Task returns the task with the given ID, or nil.
func (s *Schedule) Task(id string) *Task { return s.byID[id] }

// TasksOf returns tasks of the given kind in insertion order.
func (s *Schedule) TasksOf(k TaskKind) []*Task {
	var out []*Task
	for _, t := range s.tasks {
		if t.Kind == k {
			out = append(out, t)
		}
	}
	return out
}

// OpTask returns the Operation task executing op id, or nil.
func (s *Schedule) OpTask(opID string) *Task {
	for _, t := range s.tasks {
		if t.Kind == Operation && t.OpID == opID {
			return t
		}
	}
	return nil
}

// TransportFor returns the transport task p_{j,i,1} for edge (from,to),
// or nil. Reagent injections use from == "".
func (s *Schedule) TransportFor(from, to string) *Task {
	for _, t := range s.tasks {
		if t.Kind == Transport && t.EdgeFrom == from && t.EdgeTo == to {
			return t
		}
	}
	return nil
}

// RemovalFor returns the removal task p_{j,i,2} for edge (from,to), or nil.
func (s *Schedule) RemovalFor(from, to string) *Task {
	for _, t := range s.tasks {
		if t.Kind == Removal && t.EdgeFrom == from && t.EdgeTo == to {
			return t
		}
	}
	return nil
}

// Clone deep-copies the schedule (tasks copied, chip/assay shared).
func (s *Schedule) Clone() *Schedule {
	out := New(s.Chip, s.Assay)
	for _, t := range s.tasks {
		cp := *t
		cp.Path = grid.NewPath(append([]geom.Point(nil), t.Path.Cells...)...)
		cp.WashTargets = append([]geom.Point(nil), t.WashTargets...)
		cp.ContamCells = append([]geom.Point(nil), t.ContamCells...)
		cp.ExcessCells = append([]geom.Point(nil), t.ExcessCells...)
		cp.SensitiveCells = append([]geom.Point(nil), t.SensitiveCells...)
		out.MustAdd(&cp)
	}
	return out
}

// Makespan returns T_assay: the latest end time over all tasks (Eq. 22
// bounds it by operation ends; fluidic trailing tasks count too since the
// procedure is not finished while fluid still moves).
func (s *Schedule) Makespan() int {
	m := 0
	for _, t := range s.tasks {
		if t.Active() && t.End > m {
			m = t.End
		}
	}
	return m
}

// OperationMakespan returns the latest end over Operation tasks only —
// the paper's T_assay per Eq. (22).
func (s *Schedule) OperationMakespan() int {
	m := 0
	for _, t := range s.tasks {
		if t.Kind == Operation && t.End > m {
			m = t.End
		}
	}
	return m
}

// SortedByStart returns the tasks ordered by (Start, End, ID).
func (s *Schedule) SortedByStart() []*Task {
	out := append([]*Task(nil), s.tasks...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Validate checks every constraint family of Sec. III that a finished
// execution procedure must satisfy:
//
//   - well-formed windows and minimum durations (Eqs. 1, 6, 7, 18);
//   - operation dependencies and transport/removal sequencing
//     (Eqs. 2, 4, 5);
//   - device exclusivity (Eq. 3);
//   - no two concurrently active fluidic tasks share a grid cell
//     (Eqs. 8, 19, 20);
//   - flow paths valid on the chip; wash paths complete flow-port to
//     waste-port paths covering their targets (Eqs. 12-15);
//   - integrated removals covered by their wash path within the
//     required window (Eq. 21).
func (s *Schedule) Validate() error {
	for _, t := range s.tasks {
		if err := s.validateTask(t); err != nil {
			return err
		}
	}
	if err := s.validatePrecedence(); err != nil {
		return err
	}
	if err := s.validateExclusivity(); err != nil {
		return err
	}
	return nil
}

func (s *Schedule) validateTask(t *Task) error {
	if t.Start < 0 || t.End < t.Start {
		return fmt.Errorf("schedule: task %s has invalid window [%d,%d)", t.ID, t.Start, t.End)
	}
	if t.Active() && t.Duration() < t.MinDuration {
		return fmt.Errorf("schedule: task %s duration %d below minimum %d", t.ID, t.Duration(), t.MinDuration)
	}
	switch t.Kind {
	case Operation:
		if t.Device == nil {
			return fmt.Errorf("schedule: operation task %s has no device", t.ID)
		}
		op := s.Assay.Op(t.OpID)
		if op == nil {
			return fmt.Errorf("schedule: operation task %s references unknown op %q", t.ID, t.OpID)
		}
		if t.Duration() < op.Duration {
			return fmt.Errorf("schedule: op %s runs %ds, protocol requires %ds", t.OpID, t.Duration(), op.Duration)
		}
		if assay.DeviceKindFor(op.Kind) != t.Device.Kind {
			return fmt.Errorf("schedule: op %s (%s) bound to %s device %s", t.OpID, op.Kind, t.Device.Kind, t.Device.ID)
		}
	case Transport, Removal, WasteDisposal:
		if !t.Active() {
			return nil // integrated removal holds no path of its own
		}
		if err := t.Path.Validate(s.Chip); err != nil {
			return fmt.Errorf("schedule: task %s: %w", t.ID, err)
		}
		if t.Kind == Removal && !t.Path.Covers(t.ExcessCells) {
			return fmt.Errorf("schedule: removal %s path misses its excess cells", t.ID)
		}
	case Wash:
		if err := t.Path.ValidateComplete(s.Chip); err != nil {
			return fmt.Errorf("schedule: wash %s: %w", t.ID, err)
		}
		if !t.Path.Covers(t.WashTargets) {
			return fmt.Errorf("schedule: wash %s path misses targets", t.ID)
		}
		// Buffer must not flush through a device unless that device is
		// itself a wash target: it would carry away or dilute contents.
		targets := map[geom.Point]bool{}
		for _, c := range t.WashTargets {
			targets[c] = true
		}
		for _, c := range t.Path.Cells {
			if d := s.Chip.DeviceAt(c); d != nil && !targets[c] {
				return fmt.Errorf("schedule: wash %s flushes through non-target device %s at %v", t.ID, d.ID, c)
			}
		}
	}
	return nil
}

func (s *Schedule) validatePrecedence() error {
	for _, e := range s.Assay.Edges() {
		prod := s.OpTask(e.From)
		cons := s.OpTask(e.To)
		tr := s.TransportFor(e.From, e.To)
		if prod == nil || cons == nil {
			return fmt.Errorf("schedule: edge %s->%s lacks operation tasks", e.From, e.To)
		}
		if tr == nil {
			return fmt.Errorf("schedule: edge %s->%s lacks transport task", e.From, e.To)
		}
		if tr.Start < prod.End {
			return fmt.Errorf("schedule: transport %s starts %d before producer %s ends %d (Eq. 4)", tr.ID, tr.Start, e.From, prod.End)
		}
		if tr.End > cons.Start {
			return fmt.Errorf("schedule: transport %s ends %d after consumer %s starts %d (Eq. 4)", tr.ID, tr.End, e.To, cons.Start)
		}
		if rm := s.RemovalFor(e.From, e.To); rm != nil {
			if rm.Active() {
				if rm.Start < tr.End {
					return fmt.Errorf("schedule: removal %s starts before its transport ends (Eq. 5)", rm.ID)
				}
				if rm.End > cons.Start {
					return fmt.Errorf("schedule: removal %s ends after consumer starts (Eq. 5)", rm.ID)
				}
			} else {
				w := s.Task(rm.IntegratedInto)
				if w == nil || w.Kind != Wash {
					return fmt.Errorf("schedule: removal %s integrated into unknown wash %q", rm.ID, rm.IntegratedInto)
				}
				if !w.Path.Covers(rm.ExcessCells) {
					return fmt.Errorf("schedule: removal %s excess cells not covered by wash %s path (Eq. 21)", rm.ID, w.ID)
				}
				if w.Start < tr.End {
					return fmt.Errorf("schedule: wash %s absorbing removal %s starts before transport ends (Eq. 21)", w.ID, rm.ID)
				}
			}
		}
		// Reagent injections for the consumer must also precede it.
	}
	for _, t := range s.tasks {
		if t.Kind == Transport && t.EdgeFrom == "" && t.EdgeTo != "" {
			cons := s.OpTask(t.EdgeTo)
			if cons == nil {
				return fmt.Errorf("schedule: injection %s targets unknown op %q", t.ID, t.EdgeTo)
			}
			if t.End > cons.Start {
				return fmt.Errorf("schedule: injection %s ends %d after op %s starts %d", t.ID, t.End, t.EdgeTo, cons.Start)
			}
		}
	}
	return nil
}

// validateExclusivity checks that no two tasks holding a common cell
// run at once: device exclusivity (Eq. 3), no shared path cell between
// concurrent fluidic tasks (Eqs. 8, 19, 20), and no flush through a
// device while an operation executes on it. It sweeps the tasks in
// (start, end) order and checks each cell a task holds against the
// swept holder of that cell that ends last: if any swept holder
// overlaps the task, that one does.
func (s *Schedule) validateExclusivity() error {
	order := make([]int, len(s.tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		a, b := s.tasks[i], s.tasks[j]
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End), cmp.Compare(i, j))
	})
	// The sweep only stages each task's cells, so it needs no holder lists.
	x := &CellIndex{chip: s.Chip, heldAt: []int32{0}, stamp: make([]uint32, s.Chip.W*s.Chip.H)}
	last := make([]int32, len(x.stamp)) // last[c]: the latest-ending swept holder of c, plus one
	for _, j := range order {
		b := s.tasks[j]
		cells, err := x.stage(b)
		if err != nil {
			return err
		}
		for _, c := range cells {
			l := int(last[c]) - 1
			if l >= 0 && s.tasks[l].Overlaps(b) {
				return exclusivityError(s.tasks[min(l, j)], s.tasks[max(l, j)])
			}
			if l < 0 || s.tasks[l].End < b.End {
				last[c] = int32(j + 1)
			}
		}
	}
	return nil
}

// exclusivityError names the resource that a and b, a added first,
// contend for while their windows overlap.
func exclusivityError(a, b *Task) error {
	switch {
	case !a.Kind.Fluidic() && !b.Kind.Fluidic():
		return fmt.Errorf("schedule: ops %s and %s overlap on device %s (Eq. 3)", a.ID, b.ID, a.Device.ID)
	case a.Kind.Fluidic() && b.Kind.Fluidic():
		c := b.Path.Cells[slices.IndexFunc(b.Path.Cells, a.Path.Contains)]
		return fmt.Errorf("schedule: tasks %s and %s both occupy %v during [%d,%d)x[%d,%d)",
			a.ID, b.ID, c, a.Start, a.End, b.Start, b.End)
	}
	f, o := a, b
	if o.Kind.Fluidic() {
		f, o = b, a
	}
	return fmt.Errorf("schedule: task %s flushes through device %s while op %s executes on it", f.ID, o.Device.ID, o.ID)
}

// Metrics aggregates the evaluation quantities of Table II and Figs. 4-5.
type Metrics struct {
	// NWash is the number of wash operations N_wash.
	NWash int
	// LWashMM is the total wash path length L_wash in millimetres.
	LWashMM float64
	// TAssay is the assay completion time in seconds.
	TAssay int
	// TDelay is the wash-induced delay versus the wash-free schedule.
	TDelay int
	// AvgWaitSeconds is the mean waiting time of biochemical operations
	// versus their wash-free start times (Fig. 4).
	AvgWaitSeconds float64
	// TotalWashSeconds is the summed duration of wash operations (Fig. 5).
	TotalWashSeconds int
	// IntegratedRemovals counts removals merged into washes (ψ=1).
	IntegratedRemovals int
	// BufferMM estimates buffer fluid consumption as millimetres of
	// buffer column pushed through wash paths: flow velocity times wash
	// duration, summed over washes (the "buffer fluids" cost of Sec. I).
	BufferMM float64
}

// ComputeMetrics evaluates s against the wash-free baseline schedule.
// baseline supplies the original T_assay and per-operation start times.
func (s *Schedule) ComputeMetrics(baseline *Schedule) Metrics {
	var m Metrics
	for _, t := range s.tasks {
		switch {
		case t.Kind == Wash:
			m.NWash++
			m.LWashMM += t.Path.LengthMM(s.Chip)
			m.TotalWashSeconds += t.Duration()
			m.BufferMM += s.Chip.FlowVelocityMMs * float64(t.Duration())
		case t.Kind == Removal && t.Integrated:
			m.IntegratedRemovals++
		}
	}
	m.TAssay = s.Makespan()
	if baseline != nil {
		m.TDelay = m.TAssay - baseline.Makespan()
		var wait, n float64
		for _, bt := range baseline.TasksOf(Operation) {
			if ot := s.OpTask(bt.OpID); ot != nil {
				wait += float64(ot.Start - bt.Start)
				n++
			}
		}
		if n > 0 {
			m.AvgWaitSeconds = wait / n
		}
	}
	return m
}

// Gantt renders an ASCII time chart in the style of Figs. 2(b)/3: one
// row per task, '=' for occupied seconds, with kind markers.
func (s *Schedule) Gantt() string {
	tasks := s.SortedByStart()
	mk := s.Makespan()
	var b strings.Builder
	width := 0
	for _, t := range tasks {
		if len(t.ID) > width {
			width = len(t.ID)
		}
	}
	fmt.Fprintf(&b, "%-*s |", width, "time")
	for i := 0; i < mk; i++ {
		if i%5 == 0 {
			fmt.Fprintf(&b, "%-5d", i)
		}
	}
	b.WriteString("\n")
	for _, t := range tasks {
		if !t.Active() {
			fmt.Fprintf(&b, "%-*s |%s(integrated into %s)\n", width, t.ID, strings.Repeat(" ", t.Start), t.IntegratedInto)
			continue
		}
		mark := byte('=')
		switch t.Kind {
		case Operation:
			mark = 'O'
		case Transport:
			mark = '>'
		case Removal:
			mark = '*'
		case WasteDisposal:
			mark = '$'
		case Wash:
			mark = 'w'
		}
		fmt.Fprintf(&b, "%-*s |%s%s\n", width, t.ID,
			strings.Repeat(" ", t.Start),
			strings.Repeat(string(mark), max(1, t.Duration())))
	}
	return b.String()
}
