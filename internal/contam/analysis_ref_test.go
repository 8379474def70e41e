package contam

import (
	"sort"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/schedule"
)

// The map-based analysis that the per-cell logs replaced, kept as the
// reference of the differential tests: analyzeMaps returns what
// AnalyzeWithPolicy returned before, without its checkpoints.

// use is a sensitive access to a cell.
type use struct {
	start    int
	task     *schedule.Task
	tolerate map[assay.FluidType]bool // nil means sensitive to everything foreign
}

// cellTask keys a (cell, task ID) pair: one requirement per use, one
// demand per contamination event.
type cellTask struct {
	cell geom.Point
	task string
}

func analyzeMaps(s *schedule.Schedule, pol Policy) *Analysis {
	an := &Analysis{Skips: map[SkipReason]int{}}

	events := map[geom.Point][]Event{} // contaminations per cell
	washes := map[geom.Point][]int{}   // wash-completion times per cell
	uses := map[geom.Point][]use{}     // sensitive uses per cell
	wasteUse := map[geom.Point][]int{} // waste-carrier use starts (Type 3 stats)

	for _, t := range s.Tasks() {
		if !t.Active() {
			continue
		}
		switch t.Kind {
		case schedule.Wash:
			for _, c := range t.Path.Cells {
				washes[c] = append(washes[c], t.End)
			}
		default:
			for _, c := range t.ContamCells {
				ev := Event{Cell: c, Fluid: t.Fluid, At: t.End, TaskID: t.ID}
				events[c] = append(events[c], ev)
				an.Events = append(an.Events, ev)
			}
		}
		switch t.Kind {
		case schedule.Transport:
			cells := t.SensitiveCells
			if len(cells) > 0 {
				// Residue of the destination op's other inputs is
				// harmless: those fluids are about to be mixed anyway.
				tol := opTolerated(s.Assay, t.EdgeTo)
				tol[t.Fluid] = true
				if pol.IgnoreFluidTypes {
					tol = map[assay.FluidType]bool{}
				}
				for _, c := range cells {
					uses[c] = append(uses[c], use{start: t.Start, task: t, tolerate: tol})
				}
			}
		case schedule.Operation:
			tol := opTolerated(s.Assay, t.OpID)
			if pol.IgnoreFluidTypes {
				tol = map[assay.FluidType]bool{}
			}
			for _, c := range t.SensitiveCells {
				uses[c] = append(uses[c], use{start: t.Start, task: t, tolerate: tol})
			}
		case schedule.Removal, schedule.WasteDisposal:
			for _, c := range t.Path.Cells {
				wasteUse[c] = append(wasteUse[c], t.Start)
			}
		}
	}

	for c := range events {
		sort.Slice(events[c], func(i, j int) bool { return events[c][i].At < events[c][j].At })
	}
	for c := range uses {
		sort.Slice(uses[c], func(i, j int) bool { return uses[c][i].start < uses[c][j].start })
	}
	for c := range washes {
		sort.Ints(washes[c])
	}

	// Requirements: for each sensitive use, the foreign residue present
	// when it starts (deposited after the last wash) must be washed away.
	seen := map[cellTask]bool{}
	for cell, ulist := range uses {
		for _, u := range ulist {
			lastWash := -1
			for _, w := range washes[cell] {
				if w <= u.start && w > lastWash {
					lastWash = w
				}
			}
			var fluids []assay.FluidType
			var culprits []string
			ready := -1
			for _, ev := range events[cell] {
				if ev.At > u.start || ev.At <= lastWash {
					continue
				}
				if ev.TaskID == u.task.ID {
					continue // a task does not contaminate itself
				}
				if u.tolerate[ev.Fluid] {
					continue
				}
				fluids = appendFluid(fluids, ev.Fluid)
				culprits = appendStr(culprits, ev.TaskID)
				if ev.At > ready {
					ready = ev.At
				}
			}
			if len(fluids) == 0 {
				continue
			}
			key := cellTask{cell, u.task.ID}
			if seen[key] {
				continue
			}
			seen[key] = true
			an.Requirements = append(an.Requirements, Requirement{
				Cell: cell, Fluids: fluids, ReadyAt: ready, Deadline: u.start,
				CulpritTasks: culprits, BeforeTask: u.task.ID,
			})
		}
	}
	sort.Slice(an.Requirements, func(i, j int) bool {
		a, b := an.Requirements[i], an.Requirements[j]
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		if a.Cell.Y != b.Cell.Y {
			return a.Cell.Y < b.Cell.Y
		}
		if a.Cell.X != b.Cell.X {
			return a.Cell.X < b.Cell.X
		}
		return a.BeforeTask < b.BeforeTask
	})
	sort.Slice(an.Events, func(i, j int) bool {
		a, b := an.Events[i], an.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.TaskID != b.TaskID {
			return a.TaskID < b.TaskID
		}
		if a.Cell.Y != b.Cell.Y {
			return a.Cell.Y < b.Cell.Y
		}
		return a.Cell.X < b.Cell.X
	})

	// Skip statistics per contamination event (Sec. II-A's taxonomy).
	demanded := map[cellTask]bool{}
	for _, r := range an.Requirements {
		for _, t := range r.CulpritTasks {
			demanded[cellTask{r.Cell, t}] = true
		}
	}
	for _, ev := range an.Events {
		if demanded[cellTask{ev.Cell, ev.TaskID}] {
			an.Skips[NoSkip]++
			continue
		}
		an.Skips[refClassifySkip(ev, uses[ev.Cell], wasteUse[ev.Cell])]++
	}
	return an
}

// refClassifySkip explains why the event produced no requirement.
func refClassifySkip(ev Event, ulist []use, waste []int) SkipReason {
	sensLater := false
	for _, u := range ulist {
		if u.start >= ev.At && u.task.ID != ev.TaskID {
			sensLater = true
			break
		}
	}
	if sensLater {
		return Type2 // later sensitive uses exist, all tolerated the fluid
	}
	for _, w := range waste {
		if w >= ev.At {
			return Type3 // only waste carriers touch it afterwards
		}
	}
	return Type1
}
