package schedule

import (
	"fmt"

	"pathdriverwash/internal/grid"
)

// Placer greedily assigns conflict-free time windows on a schedule: for
// a new task it scans forward from the task's ready time to the first
// start second where no resource constraint of Sec. III is violated
// against the already-placed tasks (the serialization that Eqs. 3, 8,
// 19 and 20 express as disjunctions).
type Placer struct {
	s       *Schedule
	horizon int
}

// NewPlacer creates a placer over the schedule.
func NewPlacer(s *Schedule) *Placer {
	return &Placer{s: s, horizon: 1 << 20}
}

// crossesDevice reports whether p runs through a cell of d on the
// schedule's chip. A nil device is crossed by nothing.
func (pl *Placer) crossesDevice(p grid.Path, d *grid.Device) bool {
	if d == nil {
		return false
	}
	for _, c := range p.Cells {
		if pl.s.Chip.DeviceAt(c) == d {
			return true
		}
	}
	return false
}

// ConflictsAt reports whether task t, if run over [start, end), would
// contend for a resource with placed task u.
func (pl *Placer) ConflictsAt(t *Task, start, end int, u *Task) bool {
	if !u.Active() {
		return false
	}
	if !(start < u.End && u.Start < end) {
		return false
	}
	return pl.ConflictCapable(t, u)
}

// ConflictCapable reports whether two tasks contend for any resource
// regardless of timing: shared path cells for fluidic pairs, the same
// device for operation pairs, or a path crossing a busy device.
func (pl *Placer) ConflictCapable(t, u *Task) bool {
	tf, uf := t.Kind.Fluidic(), u.Kind.Fluidic()
	switch {
	case !tf && !uf:
		return t.Device == u.Device
	case tf && uf:
		return t.Path.Overlaps(u.Path)
	case tf && !uf:
		return pl.crossesDevice(t.Path, u.Device)
	default:
		return pl.crossesDevice(u.Path, t.Device)
	}
}

// Place assigns the earliest feasible window [start, start+dur) with
// start >= ready, adds the task to the schedule, and returns the start.
func (pl *Placer) Place(t *Task, ready, dur int) (int, error) {
	if ready < 0 {
		ready = 0
	}
	if dur <= 0 {
		dur = 1
	}
	start := ready
	for start < pl.horizon {
		bump := -1
		for _, u := range pl.s.Tasks() {
			if pl.ConflictsAt(t, start, start+dur, u) && u.End > bump {
				bump = u.End
			}
		}
		if bump < 0 {
			t.Start, t.End = start, start+dur
			if err := pl.s.Add(t); err != nil {
				return 0, err
			}
			return start, nil
		}
		start = bump // u.End > start whenever windows overlapped
	}
	return 0, fmt.Errorf("schedule: no feasible window for task %s", t.ID)
}
