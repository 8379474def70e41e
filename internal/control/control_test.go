package control

import (
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// crossChip: a plus-shaped junction at (2,2) with a port on each end.
//
//	. . I . .
//	. . - . .
//	I - + - O
//	. . - . .
//	. . O . .
func crossChip(t *testing.T) *grid.Chip {
	t.Helper()
	c := grid.NewChip("cross", 5, 5)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.AddPort("in1", grid.FlowPort, geom.Pt(0, 2))
	must(err)
	_, err = c.AddPort("in2", grid.FlowPort, geom.Pt(2, 0))
	must(err)
	_, err = c.AddPort("out1", grid.WastePort, geom.Pt(4, 2))
	must(err)
	_, err = c.AddPort("out2", grid.WastePort, geom.Pt(2, 4))
	must(err)
	for _, p := range []geom.Point{
		{X: 1, Y: 2}, {X: 2, Y: 2}, {X: 3, Y: 2}, {X: 2, Y: 1}, {X: 2, Y: 3},
	} {
		must(c.AddChannel(p))
	}
	must(c.Validate())
	return c
}

func TestSynthesizeValvesAtJunction(t *testing.T) {
	c := crossChip(t)
	l := Synthesize(c)
	// Junction (2,2) has 4 arms; port stubs add 4 more arms, but the
	// arms adjacent to the junction overlap with... count distinct:
	// junction arms: (2,2)-(1,2),(3,2),(2,1),(2,3) = 4.
	// Port stubs: in1-(1,2), in2-(2,1), out1-(3,2), out2-(2,3) = 4.
	if len(l.Valves) != 8 {
		t.Fatalf("valves = %d want 8", len(l.Valves))
	}
	if l.Valve(geom.Pt(2, 2), geom.Pt(1, 2)) == nil {
		t.Error("junction arm valve missing")
	}
	if l.Valve(geom.Pt(1, 2), geom.Pt(2, 2)) == nil {
		t.Error("arm lookup must be direction-agnostic")
	}
	if l.Valve(geom.Pt(0, 0), geom.Pt(0, 1)) != nil {
		t.Error("no valve on empty cells")
	}
}

func TestActuationSealsBranches(t *testing.T) {
	c := crossChip(t)
	l := Synthesize(c)
	// A task flowing west-to-east through the junction.
	path := grid.NewPath(geom.Pt(0, 2), geom.Pt(1, 2), geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(4, 2))
	task := &schedule.Task{ID: "t", Kind: schedule.Transport, Path: path, Start: 0, End: 2}
	act := l.actuationFor(task)
	closed := map[Arm]bool{}
	for _, v := range act.Closed {
		closed[v.Arm] = true
	}
	// The north and south arms of the junction must be sealed.
	if !closed[normArm(geom.Pt(2, 2), geom.Pt(2, 1))] {
		t.Error("north arm not sealed")
	}
	if !closed[normArm(geom.Pt(2, 2), geom.Pt(2, 3))] {
		t.Error("south arm not sealed")
	}
	// The on-path arms must be open, not closed.
	for _, v := range act.Open {
		if closed[v.Arm] {
			t.Errorf("valve %v both open and closed", v.Arm)
		}
	}
}

func TestBuildPlanOnBenchmark(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	l := Synthesize(syn.Chip)
	if len(l.Valves) == 0 {
		t.Fatal("no valves synthesized")
	}
	plan, err := BuildPlan(l, syn.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st["control_pins"] <= 0 || st["control_pins"] > st["valves_actuated"] {
		t.Errorf("pins = %d actuated = %d", st["control_pins"], st["valves_actuated"])
	}
	if st["switches"] <= 0 {
		t.Error("no switching counted")
	}
	t.Logf("PCR control layer: %v", st)
}

func TestBuildPlanOnWashedSchedule(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pdw.Optimize(syn.Schedule, pdw.Options{
		HeuristicWindows: true, Budget: solve.Budget{PerPath: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := Synthesize(syn.Chip)
	plan, err := BuildPlan(l, res.Schedule)
	if err != nil {
		t.Fatalf("washed schedule must be valve-consistent: %v", err)
	}
	if len(plan.Tasks) <= len(syn.Schedule.TasksOf(schedule.Transport)) {
		t.Error("wash tasks missing from actuation plan")
	}
}

func TestPinSharingSavesPins(t *testing.T) {
	b, _ := benchmarks.ByName("IVD")
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	l := Synthesize(syn.Chip)
	plan, err := BuildPlan(l, syn.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st["control_pins"] >= st["valves_actuated"] {
		t.Errorf("sharing saved nothing: pins %d, actuated %d",
			st["control_pins"], st["valves_actuated"])
	}
}

func TestAllBenchmarksValveConsistent(t *testing.T) {
	for _, b := range benchmarks.All() {
		syn, err := b.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		l := Synthesize(syn.Chip)
		if _, err := BuildPlan(l, syn.Schedule); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestEmptyScheduleNoPins(t *testing.T) {
	c := crossChip(t)
	l := Synthesize(c)
	s := schedule.New(c, nil)
	plan, err := BuildPlan(l, s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pins != 0 || plan.Switches != 0 {
		t.Fatalf("empty schedule: %+v", plan.Stats())
	}
}
