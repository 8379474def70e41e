package schedule

import "fmt"

// Placer greedily assigns conflict-free time windows on a schedule: for
// a new task it scans forward from the task's ready time to the first
// start second where no resource constraint of Sec. III is violated
// against the already-placed tasks (the serialization that Eqs. 3, 8,
// 19 and 20 express as disjunctions). It looks only at the placed tasks
// that hold one of the new task's cells.
type Placer struct {
	s       *Schedule
	cells   *CellIndex // the cells of the schedule's first cells.Len() tasks
	busy    [][2]int   // scratch: the windows of the candidate's holders
	horizon int
}

// NewPlacer creates a placer over the schedule.
func NewPlacer(s *Schedule) *Placer {
	return &Placer{s: s, cells: newCellIndex(s.Chip), horizon: 1 << 20}
}

// Place assigns the earliest feasible window [start, start+dur) with
// start >= ready, adds the task to the schedule, and returns the start.
// Tasks added to the schedule outside Place join the cell index first.
// A failed Place leaves the schedule and the index as they were.
func (pl *Placer) Place(t *Task, ready, dur int) (int, error) {
	tasks := pl.s.Tasks()
	for _, u := range tasks[pl.cells.Len():] {
		if _, err := pl.cells.stage(u); err != nil {
			return 0, err
		}
		pl.cells.add()
	}
	cells, err := pl.cells.stage(t)
	if err != nil {
		return 0, err
	}
	if ready < 0 {
		ready = 0
	}
	if dur <= 0 {
		dur = 1
	}
	// Only the placed tasks holding one of t's cells contend with it,
	// and of those only the ones ending after ready.
	busy := pl.busy[:0]
	for _, c := range cells {
		for _, i := range pl.cells.Holders(c) {
			if u := tasks[i]; u.End > ready {
				busy = append(busy, [2]int{u.Start, u.End})
			}
		}
	}
	pl.busy = busy
	start := ready
	for start < pl.horizon {
		bump := -1
		for _, w := range busy {
			if start < w[1] && w[0] < start+dur && w[1] > bump {
				bump = w[1]
			}
		}
		if bump < 0 {
			t.Start, t.End = start, start+dur
			if err := pl.s.Add(t); err != nil {
				return 0, err
			}
			pl.cells.add()
			return start, nil
		}
		start = bump // an overlapping window ends after start
	}
	return 0, fmt.Errorf("schedule: no feasible window for task %s", t.ID)
}
