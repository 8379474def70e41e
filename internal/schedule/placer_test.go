package schedule

import (
	"slices"
	"strings"
	"testing"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

func TestPlacerSerializesPathConflicts(t *testing.T) {
	c, a := fixture(t)
	s := New(c, a)
	pl := NewPlacer(s)
	t1 := &Task{ID: "t1", Kind: Transport, Path: row(0, 5), Fluid: "f"}
	t2 := &Task{ID: "t2", Kind: Transport, Path: row(3, 9), Fluid: "g"}
	if _, err := pl.Place(t1, 0, 3); err != nil {
		t.Fatal(err)
	}
	start, err := pl.Place(t2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if start < t1.End {
		t.Fatalf("overlapping-path task placed at %d before %d", start, t1.End)
	}
}

func TestPlacerAllowsDisjointPaths(t *testing.T) {
	c, a := fixture(t)
	s := New(c, a)
	pl := NewPlacer(s)
	t1 := &Task{ID: "t1", Kind: Transport, Path: row(0, 2), Fluid: "f"}
	t2 := &Task{ID: "t2", Kind: Transport, Path: row(8, 9), Fluid: "g"}
	if _, err := pl.Place(t1, 0, 3); err != nil {
		t.Fatal(err)
	}
	start, err := pl.Place(t2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("disjoint task delayed to %d", start)
	}
}

func TestPlacerSerializesDevice(t *testing.T) {
	c, a := fixture(t)
	s := New(c, a)
	pl := NewPlacer(s)
	mixer := c.Device("mixer")
	o1 := &Task{ID: "a", Kind: Operation, OpID: "o1", Device: mixer}
	o2 := &Task{ID: "b", Kind: Operation, OpID: "o1", Device: mixer}
	if _, err := pl.Place(o1, 0, 4); err != nil {
		t.Fatal(err)
	}
	start, err := pl.Place(o2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if start < 4 {
		t.Fatalf("same-device op placed at %d during [0,4)", start)
	}
}

func TestPlacerRespectsReady(t *testing.T) {
	c, a := fixture(t)
	s := New(c, a)
	pl := NewPlacer(s)
	task := &Task{ID: "t", Kind: Transport, Path: row(0, 2), Fluid: "f"}
	start, err := pl.Place(task, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if start != 7 {
		t.Fatalf("start = %d want 7", start)
	}
	// Negative ready clamps to zero.
	task2 := &Task{ID: "t2", Kind: Transport, Path: row(8, 9), Fluid: "f"}
	if start, err := pl.Place(task2, -5, 1); err != nil || start != 0 {
		t.Fatalf("start = %d, %v", start, err)
	}
}

func TestPlacerFluidVsBusyDevice(t *testing.T) {
	c, a := fixture(t)
	s := New(c, a)
	pl := NewPlacer(s)
	mixer := c.Device("mixer")
	op := &Task{ID: "op", Kind: Operation, OpID: "o1", Device: mixer}
	if _, err := pl.Place(op, 0, 5); err != nil {
		t.Fatal(err)
	}
	// Path crossing the mixer cells must wait for the op.
	through := grid.NewPath(geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(4, 2))
	cross := &Task{ID: "x", Kind: Transport, Path: through, Fluid: "f"}
	start, err := pl.Place(cross, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if start < 5 {
		t.Fatalf("flush through busy device at %d", start)
	}
}

func TestPlacerIgnoresInactiveTasks(t *testing.T) {
	c, a := fixture(t)
	s := New(c, a)
	s.MustAdd(&Task{ID: "ghost", Kind: Removal, Integrated: true,
		IntegratedInto: "w", Path: row(0, 9), Start: 0, End: 10})
	pl := NewPlacer(s)
	task := &Task{ID: "t", Kind: Transport, Path: row(0, 9), Fluid: "f"}
	start, err := pl.Place(task, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("integrated removal blocked placement: start %d", start)
	}
}

// TestPlacerIndexesEveryTask pins that a task added to the schedule
// outside Place blocks the next placement, and that a failed Place (a
// duplicate ID, a cell off the chip) blocks nothing.
func TestPlacerIndexesEveryTask(t *testing.T) {
	c, a := fixture(t)
	s := New(c, a)
	pl := NewPlacer(s)
	if _, err := pl.Place(&Task{ID: "t1", Kind: Transport, Path: row(0, 5)}, 0, 3); err != nil {
		t.Fatal(err)
	}
	s.MustAdd(&Task{ID: "t2", Kind: Transport, Path: row(6, 9), Start: 0, End: 4})
	// Bumped past t2 to [4,9), then rejected as a duplicate of t1.
	if _, err := pl.Place(&Task{ID: "t1", Kind: Transport, Path: row(8, 9)}, 0, 5); err == nil {
		t.Fatal("a duplicate ID must fail")
	}
	off := &Task{ID: "off", Kind: Transport, Path: grid.NewPath(geom.Pt(9, 2), geom.Pt(10, 2))}
	if _, err := pl.Place(off, 0, 1); err == nil {
		t.Fatal("a cell off the chip must fail")
	}
	start, err := pl.Place(&Task{ID: "t3", Kind: Transport, Path: row(8, 9)}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if start != 4 {
		t.Fatalf("start = %d, want 4: after t2, and not after the rejected task", start)
	}
}

// TestConflictCapableMatrix pins the held-cells rule on the fixture: two
// tasks are conflict-capable exactly when they hold a common cell, and an
// integrated removal holds none.
func TestConflictCapableMatrix(t *testing.T) {
	c, _ := fixture(t)
	mixer, heater := c.Device("mixer"), c.Device("heater")
	tasks := []*Task{
		{ID: "om", Kind: Operation, Device: mixer},
		{ID: "oh", Kind: Operation, Device: heater},
		{ID: "om2", Kind: Operation, Device: mixer},
		{ID: "fa", Kind: Transport, Path: row(0, 5)},
		{ID: "fb", Kind: Wash, Path: row(3, 9)},
		{ID: "fc", Kind: Removal, Path: row(0, 1)},
		{ID: "ghost", Kind: Removal, Integrated: true, Path: row(0, 9)},
	}
	x, err := IndexCells(c, tasks)
	if err != nil {
		t.Fatal(err)
	}
	share := func(i, j int) bool {
		return slices.ContainsFunc(x.Held(i), func(c int32) bool { return slices.Contains(x.Holders(c), int32(j)) })
	}
	for _, tc := range []struct {
		i, j int
		want bool
		why  string
	}{
		{0, 1, false, "different devices never conflict"},
		{0, 2, true, "same device conflicts"},
		{3, 4, true, "overlapping paths conflict"},
		{4, 5, false, "disjoint paths do not conflict"},
		{3, 0, true, "path crossing mixer conflicts with mixer op"},
		{5, 0, false, "path far from mixer does not conflict"},
		{3, 6, false, "an integrated removal holds no cell"},
	} {
		if share(tc.i, tc.j) != tc.want || share(tc.j, tc.i) != tc.want {
			t.Errorf("%s and %s: %s", tasks[tc.i].ID, tasks[tc.j].ID, tc.why)
		}
	}
	if _, err := IndexCells(c, []*Task{{ID: "op", Kind: Operation}}); err == nil || !strings.Contains(err.Error(), "has no device") {
		t.Errorf("an operation without a device: error %v", err)
	}
	off := &Task{ID: "off", Kind: Transport, Path: grid.NewPath(geom.Pt(9, 2), geom.Pt(10, 2))}
	if _, err := IndexCells(c, []*Task{off}); err == nil || !strings.Contains(err.Error(), "off the 10x5 chip") {
		t.Errorf("a path off the chip: error %v", err)
	}
}
