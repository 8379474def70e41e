package contam

import (
	"strings"
	"testing"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/synth"
)

// lineChip builds a 12x5 chip: one spine channel (row 2) with in/out at
// the ends, and a second bypass row for wash routing.
func lineChip(t *testing.T) *grid.Chip {
	t.Helper()
	c := grid.NewChip("line", 12, 5)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.AddPort("in1", grid.FlowPort, geom.Pt(0, 2))
	must(err)
	_, err = c.AddPort("out1", grid.WastePort, geom.Pt(11, 2))
	must(err)
	for x := 1; x < 11; x++ {
		must(c.AddChannel(geom.Pt(x, 2)))
	}
	must(c.Validate())
	return c
}

func seq(y, x0, x1 int) []geom.Point {
	var pts []geom.Point
	for x := x0; x <= x1; x++ {
		pts = append(pts, geom.Pt(x, y))
	}
	return pts
}

// twoTransportSchedule builds two transports over the same spine: the
// first carries fluid fa and contaminates cells 3..6; the second carries
// fb with the same cells sensitive.
func twoTransportSchedule(t *testing.T, fa, fb assay.FluidType, gap int) *schedule.Schedule {
	t.Helper()
	c := lineChip(t)
	a := assay.New("two")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 1, Output: fa, Reagents: []assay.FluidType{fa}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 1, Output: fb, Reagents: []assay.FluidType{fb}})
	s := schedule.New(c, a)
	full := grid.NewPath(seq(2, 0, 11)...)
	s.MustAdd(&schedule.Task{
		ID: "t1", Kind: schedule.Transport, Start: 0, End: 1, MinDuration: 1,
		Path: full, Fluid: fa,
		ContamCells:    seq(2, 3, 6),
		SensitiveCells: seq(2, 3, 6),
	})
	s.MustAdd(&schedule.Task{
		ID: "t2", Kind: schedule.Transport, Start: 1 + gap, End: 2 + gap, MinDuration: 1,
		Path: full, Fluid: fb,
		ContamCells:    seq(2, 3, 6),
		SensitiveCells: seq(2, 3, 6),
	})
	return s
}

func TestConflictDetected(t *testing.T) {
	s := twoTransportSchedule(t, "fa", "fb", 3)
	an, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) != 4 { // cells 3..6
		t.Fatalf("requirements = %d want 4: %v", len(an.Requirements), an.Requirements)
	}
	r := an.Requirements[0]
	if r.ReadyAt != 1 || r.Deadline != 4 || r.BeforeTask != "t2" {
		t.Errorf("requirement = %+v", r)
	}
	if len(r.CulpritTasks) != 1 || r.CulpritTasks[0] != "t1" {
		t.Errorf("culprits = %v", r.CulpritTasks)
	}
	if err := Verify(s); err == nil {
		t.Error("Verify must fail on contaminated schedule")
	}
}

func TestType2SameFluidSkipped(t *testing.T) {
	s := twoTransportSchedule(t, "fa", "fa", 3)
	an, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) != 0 {
		t.Fatalf("same-fluid reuse must need no wash: %v", an.Requirements)
	}
	if an.Skips[Type2] == 0 {
		t.Errorf("expected Type2 skips, got %v", an.Skips)
	}
	if err := Verify(s); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestType1NeverReused(t *testing.T) {
	c := lineChip(t)
	a := assay.New("one")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 1, Output: "fa", Reagents: []assay.FluidType{"fa"}})
	s := schedule.New(c, a)
	s.MustAdd(&schedule.Task{
		ID: "t1", Kind: schedule.Transport, Start: 0, End: 1, MinDuration: 1,
		Path:        grid.NewPath(seq(2, 0, 11)...),
		Fluid:       "fa",
		ContamCells: seq(2, 3, 6), SensitiveCells: seq(2, 3, 6),
	})
	an, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) != 0 {
		t.Fatalf("unused residue must need no wash: %v", an.Requirements)
	}
	if an.Skips[Type1] != 4 {
		t.Errorf("Type1 skips = %v", an.Skips)
	}
}

func TestType3WasteCarrierSkipped(t *testing.T) {
	c := lineChip(t)
	a := assay.New("w")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 1, Output: "fa", Reagents: []assay.FluidType{"fa"}})
	s := schedule.New(c, a)
	full := grid.NewPath(seq(2, 0, 11)...)
	s.MustAdd(&schedule.Task{
		ID: "t1", Kind: schedule.Transport, Start: 0, End: 1, MinDuration: 1,
		Path: full, Fluid: "fa",
		ContamCells: seq(2, 3, 6), SensitiveCells: seq(2, 3, 6),
	})
	// A waste disposal later reuses the same cells: no wash needed (Q=1).
	s.MustAdd(&schedule.Task{
		ID: "d1", Kind: schedule.WasteDisposal, Start: 3, End: 4, MinDuration: 1,
		Path: full, Fluid: assay.Waste,
		ContamCells: seq(2, 3, 10),
	})
	an, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) != 0 {
		t.Fatalf("waste-only reuse must need no wash: %v", an.Requirements)
	}
	if an.Skips[Type3] == 0 {
		t.Errorf("expected Type3 skips: %v", an.Skips)
	}
}

func TestWashClearsResidue(t *testing.T) {
	s := twoTransportSchedule(t, "fa", "fb", 5)
	// Insert a wash covering the spine between the transports.
	s.MustAdd(&schedule.Task{
		ID: "w1", Kind: schedule.Wash, Start: 2, End: 4, MinDuration: 2,
		Path:        grid.NewPath(seq(2, 0, 11)...),
		Fluid:       "buffer",
		WashTargets: seq(2, 3, 6),
	})
	an, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) != 0 {
		t.Fatalf("washed schedule still has requirements: %v", an.Requirements)
	}
	if err := Verify(s); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestWashTooLateDoesNotHelp(t *testing.T) {
	s := twoTransportSchedule(t, "fa", "fb", 5)
	s.MustAdd(&schedule.Task{
		ID: "w1", Kind: schedule.Wash, Start: 7, End: 9, MinDuration: 2,
		Path:        grid.NewPath(seq(2, 0, 11)...),
		Fluid:       "buffer",
		WashTargets: seq(2, 3, 6),
	})
	if err := Verify(s); err == nil {
		t.Fatal("wash after the sensitive use must not satisfy it")
	}
}

func TestRecontaminationAfterWash(t *testing.T) {
	s := twoTransportSchedule(t, "fa", "fb", 8)
	// Wash early, then a third fa transport re-contaminates before t2.
	s.MustAdd(&schedule.Task{
		ID: "w1", Kind: schedule.Wash, Start: 2, End: 3, MinDuration: 1,
		Path:        grid.NewPath(seq(2, 0, 11)...),
		Fluid:       "buffer",
		WashTargets: seq(2, 3, 6),
	})
	s.MustAdd(&schedule.Task{
		ID: "t3", Kind: schedule.Transport, Start: 4, End: 5, MinDuration: 1,
		Path:        grid.NewPath(seq(2, 0, 11)...),
		Fluid:       "fa",
		ContamCells: seq(2, 3, 6), SensitiveCells: seq(2, 3, 6),
	})
	an, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	// t2 (fb) at start 9 sees fa residue from t3 (deposited at 5).
	if len(an.Requirements) != 4 {
		t.Fatalf("requirements = %v", an.Requirements)
	}
	if an.Requirements[0].ReadyAt != 5 || an.Requirements[0].CulpritTasks[0] != "t3" {
		t.Errorf("requirement = %+v", an.Requirements[0])
	}
}

func TestOpToleratesItsInputs(t *testing.T) {
	a := assay.New("tol")
	a.MustAddOp(&assay.Operation{ID: "p", Kind: assay.Mix, Duration: 1, Output: "fp", Reagents: []assay.FluidType{"r1"}})
	a.MustAddOp(&assay.Operation{ID: "q", Kind: assay.Mix, Duration: 1, Output: "fq", Reagents: []assay.FluidType{"r2"}})
	a.MustAddEdge("p", "q")
	tol := opTolerated(a, "q")
	for _, f := range []assay.FluidType{"fq", "r2", "fp"} {
		if !tol[f] {
			t.Errorf("op q should tolerate %s", f)
		}
	}
	if tol["other"] {
		t.Error("op q must not tolerate foreign fluid")
	}
	if len(opTolerated(a, "missing")) != 0 {
		t.Error("unknown op tolerates nothing")
	}
}

func TestDeviceResidueConflict(t *testing.T) {
	c := grid.NewChip("dev", 10, 5)
	if _, err := c.AddPort("in1", grid.FlowPort, geom.Pt(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPort("out1", grid.WastePort, geom.Pt(9, 2)); err != nil {
		t.Fatal(err)
	}
	d, err := c.AddDevice("mixer1", grid.Mixer, geom.Rc(4, 2, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x < 9; x++ {
		if err := c.AddChannel(geom.Pt(x, 2)); err != nil {
			t.Fatal(err)
		}
	}
	a := assay.New("dev")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 1, Output: "fa", Reagents: []assay.FluidType{"ra"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 1, Output: "fb", Reagents: []assay.FluidType{"rb"}})
	s := schedule.New(c, a)
	// o1 runs on the mixer; its disposal deposits fa residue on the
	// device; o2 then runs on the same mixer with foreign inputs.
	s.MustAdd(&schedule.Task{ID: "op-o1", Kind: schedule.Operation, Start: 0, End: 1,
		MinDuration: 1, OpID: "o1", Device: d, Fluid: "fa", SensitiveCells: d.Cells()})
	s.MustAdd(&schedule.Task{ID: "disp-o1", Kind: schedule.WasteDisposal, Start: 1, End: 2,
		MinDuration: 1, Path: grid.NewPath(seq(2, 0, 9)...), Fluid: "fa",
		ContamCells: d.Cells()})
	s.MustAdd(&schedule.Task{ID: "op-o2", Kind: schedule.Operation, Start: 5, End: 6,
		MinDuration: 1, OpID: "o2", Device: d, Fluid: "fb", SensitiveCells: d.Cells()})
	an, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) == 0 {
		t.Fatal("device residue conflict not detected")
	}
	r := an.Requirements[0]
	if r.BeforeTask != "op-o2" || r.Deadline != 5 {
		t.Errorf("requirement = %+v", r)
	}
}

func TestSynthesizedScheduleAnalysis(t *testing.T) {
	// End-to-end: a three-op chain with distinct fluids must produce
	// requirements (the same channels are reused by different fluids).
	a := assay.New("e2e")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 2, Output: "f2",
		Reagents: []assay.FluidType{"r3"}})
	a.MustAddOp(&assay.Operation{ID: "o3", Kind: assay.Mix, Duration: 2, Output: "f3"})
	a.MustAddEdge("o1", "o3")
	a.MustAddEdge("o2", "o3")
	res, err := synth.Synthesize(a, Config{}.devices())
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Events) == 0 {
		t.Fatal("no contamination events on a synthesized schedule")
	}
	total := 0
	for _, n := range an.Skips {
		total += n
	}
	if total != len(an.Events) {
		t.Errorf("skip stats cover %d of %d events", total, len(an.Events))
	}
	t.Logf("events=%d requirements=%d skips=%v", len(an.Events), len(an.Requirements), an.Skips)
}

// Config helper so the test reads naturally.
type Config struct{}

func (Config) devices() synth.Config {
	return synth.Config{Devices: []synth.DeviceSpec{{Kind: grid.Mixer, Count: 2}}}
}

func TestSkipReasonStrings(t *testing.T) {
	for r, want := range map[SkipReason]string{
		NoSkip: "wash-needed", Type1: "type1-unused",
		Type2: "type2-same-fluid", Type3: "type3-waste-only",
	} {
		if r.String() != want {
			t.Errorf("%d = %q want %q", r, r.String(), want)
		}
	}
}

func TestRequirementString(t *testing.T) {
	r := Requirement{Cell: geom.Pt(1, 2), ReadyAt: 3, Deadline: 7, BeforeTask: "t9"}
	if !strings.Contains(r.String(), "(1,2)") || !strings.Contains(r.String(), "t9") {
		t.Errorf("String = %q", r.String())
	}
}

func TestIgnoreFluidTypesPolicy(t *testing.T) {
	s := twoTransportSchedule(t, "fa", "fa", 3)
	lax, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := AnalyzeWithPolicy(s, Policy{IgnoreFluidTypes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(lax.Requirements) != 0 {
		t.Fatal("same-fluid reuse clean under default policy")
	}
	if len(cons.Requirements) == 0 {
		t.Fatal("conservative policy must wash same-fluid reuse")
	}
}

func TestHeatmap(t *testing.T) {
	s := twoTransportSchedule(t, "fa", "fb", 3)
	hm, err := Heatmap(s)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 5 || len(lines[0]) != 12 {
		t.Fatalf("heatmap shape wrong:\n%s", hm)
	}
	if !strings.Contains(hm, "I") || !strings.Contains(hm, "O") {
		t.Error("ports missing")
	}
	// Cells 3..6 on row 2 were contaminated twice (t1 and t2).
	if !strings.Contains(lines[2], "2222") {
		t.Errorf("contamination counts missing: %q", lines[2])
	}
}

// TestOffChipCellRejected pins that a cell off the chip, in any of the
// lists the analysis reads, is an error and not a panic, as is a
// schedule without a chip.
func TestOffChipCellRejected(t *testing.T) {
	for _, off := range []geom.Point{geom.Pt(12, 2), geom.Pt(-1, 2), geom.Pt(3, 5)} {
		for _, list := range []string{"contam", "sensitive", "removal path"} {
			s := twoTransportSchedule(t, "fa", "fb", 3)
			tk := s.Task("t2")
			switch list {
			case "contam":
				tk.ContamCells = append(tk.ContamCells, off)
			case "sensitive":
				tk.SensitiveCells = append(tk.SensitiveCells, off)
			case "removal path": // a waste carrier's uses
				tk.Kind = schedule.Removal
				tk.Path = grid.NewPath(append(tk.Path.Cells, off)...)
			}
			if _, err := Analyze(s); err == nil || !strings.Contains(err.Error(), "off the 12x5 chip") {
				t.Errorf("%v in %s cells: error %v", off, list, err)
			}
		}
	}
	if _, err := Analyze(schedule.New(nil, assay.New("none"))); err == nil {
		t.Error("a schedule without a chip must fail")
	}
}
