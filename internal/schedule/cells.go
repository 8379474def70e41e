package schedule

import (
	"fmt"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// CellIndex is the resource relation of Sec. III: it records the chip
// cells each task of a sequence holds, and the tasks holding each cell.
// An operation holds its device's cells (Eq. 3), an active fluidic task
// its path's cells (Eqs. 8, 19, 20), and an integrated removal none.
// Two tasks contend for a resource exactly when they hold a common
// cell: AddDevice keeps device areas disjoint, so two operations share
// a cell only on the same device, and a path crosses a device exactly
// when it holds one of the device's cells. Cells are the chip's dense
// indices y·W+x; tasks are numbered in the order they were added.
type CellIndex struct {
	chip *grid.Chip
	// held[heldAt[i]:heldAt[i+1]] are task i's cells, each once, in
	// the order its path or device lists them. Past the last task's,
	// held may list the cells of a task staged but not yet added.
	heldAt, held []int32
	// holders[c] are the tasks holding cell c, in task order. A cell's
	// first slabCap holders share slab with 63 other cells' (one
	// allocation instead of several per cell); later ones grow apart.
	holders [][]int32
	slab    []int32
	// stamp[c] == gen: c is already among the staged task's cells.
	stamp []uint32
	gen   uint32
}

const slabCap = 8

func newCellIndex(chip *grid.Chip) *CellIndex {
	n := chip.W * chip.H
	return &CellIndex{chip: chip, heldAt: []int32{0}, holders: make([][]int32, n), stamp: make([]uint32, n)}
}

// IndexCells indexes tasks in order, so that task i of the index is
// tasks[i]. It rejects a held cell off the chip and an operation
// without a device, neither of which a valid schedule holds.
func IndexCells(chip *grid.Chip, tasks []*Task) (*CellIndex, error) {
	x := newCellIndex(chip)
	for _, t := range tasks {
		if _, err := x.stage(t); err != nil {
			return nil, err
		}
		x.add()
	}
	return x, nil
}

// Held returns the cells task i holds.
func (x *CellIndex) Held(i int) []int32 { return x.held[x.heldAt[i]:x.heldAt[i+1]] }

// Holders returns the tasks holding cell c, in task order.
func (x *CellIndex) Holders(c int32) []int32 { return x.holders[c] }

// Len returns the number of tasks indexed.
func (x *CellIndex) Len() int { return len(x.heldAt) - 1 }

// stage lists the cells t holds after the indexed tasks' cells, without
// indexing t, and returns them; add then indexes t as the next task.
// Staging again drops what the last stage listed.
func (x *CellIndex) stage(t *Task) ([]int32, error) {
	from := x.heldAt[len(x.heldAt)-1]
	x.held = x.held[:from]
	x.gen++
	var cells []geom.Point
	switch {
	case !t.Active():
	case t.Kind.Fluidic():
		cells = t.Path.Cells
	case t.Device == nil:
		return nil, fmt.Errorf("schedule: operation %s has no device", t.ID)
	default:
		cells = t.Device.Cells()
	}
	for _, pt := range cells {
		if !x.chip.InBounds(pt) {
			return nil, fmt.Errorf("schedule: task %s holds cell %v off the %dx%d chip", t.ID, pt, x.chip.W, x.chip.H)
		}
		if c := int32(pt.Y*x.chip.W + pt.X); x.stamp[c] != x.gen {
			x.stamp[c] = x.gen
			x.held = append(x.held, c)
		}
	}
	return x.held[from:], nil
}

// add indexes the task whose cells the last stage listed.
func (x *CellIndex) add() {
	i := int32(x.Len())
	x.heldAt = append(x.heldAt, int32(len(x.held)))
	for _, c := range x.Held(int(i)) {
		if x.holders[c] == nil {
			if len(x.slab) < slabCap {
				x.slab = make([]int32, 64*slabCap)
			}
			x.holders[c], x.slab = x.slab[:0:slabCap], x.slab[slabCap:]
		}
		x.holders[c] = append(x.holders[c], i)
	}
}
