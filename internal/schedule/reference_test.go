package schedule_test

import (
	"fmt"
	"slices"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
)

// The pairwise placer and exclusivity check that the cell index
// replaced, kept as the references of the differential tests.

// refConflictCapable is the pairwise resource rule the cell index
// replaced: the same device for two operations, a shared cell for two
// paths, and a path through the operation's device for a mixed pair.
func refConflictCapable(chip *grid.Chip, t, u *schedule.Task) bool {
	tf, uf := t.Kind.Fluidic(), u.Kind.Fluidic()
	switch {
	case !tf && !uf:
		return t.Device == u.Device
	case tf && uf:
		return slices.ContainsFunc(t.Path.Cells, u.Path.Contains)
	case tf:
		return crossesDevice(chip, t.Path, u.Device)
	default:
		return crossesDevice(chip, u.Path, t.Device)
	}
}

// crossesDevice reports whether p runs through a cell of d on the chip.
// A nil device is crossed by nothing.
func crossesDevice(chip *grid.Chip, p grid.Path, d *grid.Device) bool {
	return d != nil && slices.ContainsFunc(p.Cells, func(c geom.Point) bool { return chip.DeviceAt(c) == d })
}

// sharedCells returns the cells of q that p also visits, in q's order,
// each once.
func sharedCells(p, q grid.Path) []geom.Point {
	set := p.CellSet()
	var out []geom.Point
	for _, c := range q.Cells {
		if set[c] {
			out = append(out, c)
			delete(set, c)
		}
	}
	return out
}

// refPlace is the placer that tested the task against every placed task
// at each start it tried.
func refPlace(s *schedule.Schedule, t *schedule.Task, ready, dur int) (int, error) {
	if ready < 0 {
		ready = 0
	}
	if dur <= 0 {
		dur = 1
	}
	for start := ready; start < 1<<20; {
		bump := -1
		for _, u := range s.Tasks() {
			if u.Active() && start < u.End && u.Start < start+dur && refConflictCapable(s.Chip, t, u) && u.End > bump {
				bump = u.End
			}
		}
		if bump < 0 {
			t.Start, t.End = start, start+dur
			return start, s.Add(t)
		}
		start = bump
	}
	return 0, fmt.Errorf("schedule: no feasible window for task %s", t.ID)
}

// refValidateExclusivity is the exclusivity check of Validate as three
// all-pairs loops: operations on one device, fluidic tasks on a shared
// cell, and fluidic tasks through a busy device.
func refValidateExclusivity(s *schedule.Schedule) error {
	ops := s.TasksOf(schedule.Operation)
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			if ops[i].Device == ops[j].Device && ops[i].Overlaps(ops[j]) {
				return fmt.Errorf("schedule: ops %s and %s overlap on device %s (Eq. 3)", ops[i].ID, ops[j].ID, ops[i].Device.ID)
			}
		}
	}
	var fl []*schedule.Task
	for _, t := range s.Tasks() {
		if t.Kind.Fluidic() && t.Active() {
			fl = append(fl, t)
		}
	}
	for i := 0; i < len(fl); i++ {
		for j := i + 1; j < len(fl); j++ {
			if fl[i].Overlaps(fl[j]) && slices.ContainsFunc(fl[i].Path.Cells, fl[j].Path.Contains) {
				sh := sharedCells(fl[i].Path, fl[j].Path)
				return fmt.Errorf("schedule: tasks %s and %s both occupy %v during [%d,%d)x[%d,%d)",
					fl[i].ID, fl[j].ID, sh[0], fl[i].Start, fl[i].End, fl[j].Start, fl[j].End)
			}
		}
	}
	for _, f := range fl {
		for _, o := range ops {
			if !f.Overlaps(o) {
				continue
			}
			for _, cell := range f.Path.Cells {
				if d := s.Chip.DeviceAt(cell); d != nil && d == o.Device {
					return fmt.Errorf("schedule: task %s flushes through device %s while op %s executes on it", f.ID, d.ID, o.ID)
				}
			}
		}
	}
	return nil
}
