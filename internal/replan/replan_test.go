package replan

import (
	"slices"
	"strings"
	"testing"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/synth"
)

// fixture synthesizes a small two-op chain whose transports share the
// street grid, guaranteeing contamination requirements.
func fixture(t *testing.T) (*synth.Result, *contam.Analysis) {
	t.Helper()
	a := assay.New("re")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 2, Output: "f2",
		Reagents: []assay.FluidType{"r3"}})
	a.MustAddEdge("o1", "o2")
	res, err := synth.Synthesize(a, synth.Config{
		Devices: []synth.DeviceSpec{{Kind: grid.Mixer, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := contam.Analyze(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return res, an
}

func TestBuildWithoutWashesReproducesBase(t *testing.T) {
	res, _ := fixture(t)
	plan, err := Build(res.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != len(res.Schedule.Tasks()) {
		t.Fatalf("tasks = %d want %d", len(plan.Tasks), len(res.Schedule.Tasks()))
	}
	if free := plan.FreePairs(); len(free) != 0 {
		t.Fatalf("no washes, so no free pairs; got %v", free)
	}
	out, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan() > res.Schedule.Makespan() {
		t.Fatalf("greedy rebuild %d slower than base %d", out.Makespan(), res.Schedule.Makespan())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	res, _ := fixture(t)
	plan, err := Build(res.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != len(plan.Tasks) {
		t.Fatalf("order lists %d of %d tasks", len(plan.Order), len(plan.Tasks))
	}
	pos := make([]int, len(plan.Tasks))
	for i, v := range plan.Order {
		pos[v] = i
	}
	for _, e := range plan.Edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %s->%s violated", plan.Tasks[e[0]].ID, plan.Tasks[e[1]].ID)
		}
	}
}

// washFor builds a wash spec from the first contamination requirement
// using the heuristic path constructor.
func washFor(t *testing.T, res *synth.Result, an *contam.Analysis) WashSpec {
	t.Helper()
	if len(an.Requirements) == 0 {
		t.Skip("fixture produced no requirements")
	}
	r := an.Requirements[0]
	// Collect all requirement cells with the same BeforeTask.
	var cells []geom.Point
	culprits := map[string]bool{}
	for _, q := range an.Requirements {
		if q.BeforeTask == r.BeforeTask {
			cells = append(cells, q.Cell)
			for _, c := range q.CulpritTasks {
				culprits[c] = true
			}
		}
	}
	// Chain them via a trivial adjacency walk (cells come from one plug
	// segment, so they form a chain).
	pathCells := cells
	w := WashSpec{
		ID: "w1", Targets: pathCells, Duration: 2,
		Before: []string{r.BeforeTask},
	}
	for c := range culprits {
		w.Culprits = append(w.Culprits, c)
	}
	// Route the path with the shared flush helper through a chain order.
	chain, err := chainOrderForTest(pathCells)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	p, _, _, err := flushForTest(res.Chip, chain)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	w.Path = p
	return w
}

func TestGreedyInsertsWash(t *testing.T) {
	res, an := fixture(t)
	w := washFor(t, res, an)
	plan, err := Build(res.Schedule, []WashSpec{w})
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	wt := out.Task("w1")
	if wt == nil || wt.Kind != schedule.Wash {
		t.Fatal("wash not placed")
	}
	for _, c := range w.Culprits {
		if out.Task(c).End > wt.Start {
			t.Errorf("wash starts before culprit %s ends", c)
		}
	}
	for _, b := range w.Before {
		if wt.End > out.Task(b).Start {
			t.Errorf("wash ends after user %s starts", b)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFreePairsOnlyInvolveWashes(t *testing.T) {
	res, an := fixture(t)
	w := washFor(t, res, an)
	plan, err := Build(res.Schedule, []WashSpec{w})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range plan.FreePairs() {
		a, b := plan.Tasks[fp[0]], plan.Tasks[fp[1]]
		if a.Kind != schedule.Wash && b.Kind != schedule.Wash {
			t.Errorf("free pair %s/%s has no wash", a.ID, b.ID)
		}
	}
}

func TestApplyMatchesGreedy(t *testing.T) {
	res, an := fixture(t)
	w := washFor(t, res, an)
	plan, err := Build(res.Schedule, []WashSpec{w})
	if err != nil {
		t.Fatal(err)
	}
	g, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, len(plan.Tasks))
	for i, tk := range plan.Tasks {
		starts[i] = g.Task(tk.ID).Start
	}
	applied, err := plan.Apply(starts)
	if err != nil {
		t.Fatal(err)
	}
	if applied.Makespan() != g.Makespan() {
		t.Fatalf("apply %d != greedy %d", applied.Makespan(), g.Makespan())
	}
}

func TestApplyRejectsWrongLength(t *testing.T) {
	res, _ := fixture(t)
	plan, err := Build(res.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Apply([]int{1, 2}); err == nil {
		t.Fatal("wrong-length starts must fail")
	}
}

func TestDuplicateIntegrationRejected(t *testing.T) {
	res, _ := fixture(t)
	rms := res.Schedule.TasksOf(schedule.Removal)
	if len(rms) == 0 {
		t.Skip("no removals")
	}
	w1 := WashSpec{ID: "w1", Duration: 1, Integrates: []string{rms[0].ID}}
	w2 := WashSpec{ID: "w2", Duration: 1, Integrates: []string{rms[0].ID}}
	if _, err := Build(res.Schedule, []WashSpec{w1, w2}); err == nil {
		t.Fatal("double integration must fail")
	}
}

func TestBadWashDurationRejected(t *testing.T) {
	res, _ := fixture(t)
	if _, err := Build(res.Schedule, []WashSpec{{ID: "w", Duration: 0}}); err == nil {
		t.Fatal("zero duration wash must fail")
	}
}

func TestUnknownCulpritRejected(t *testing.T) {
	res, _ := fixture(t)
	w := WashSpec{ID: "w", Duration: 1, Culprits: []string{"nonexistent"}}
	if _, err := Build(res.Schedule, []WashSpec{w}); err == nil {
		t.Fatal("unknown culprit must fail")
	}
}

func TestRemovalTransportID(t *testing.T) {
	if id, ok := TransportIDForRemoval("rm-o1-o2", "o1", "o2"); !ok || id != "tr-o1-o2" {
		t.Errorf("got %q %v", id, ok)
	}
	if id, ok := TransportIDForRemoval("rm-inj-o1-1", "", "o1"); !ok || id != "inj-o1-1" {
		t.Errorf("got %q %v", id, ok)
	}
	if _, ok := TransportIDForRemoval("bogus", "", ""); ok {
		t.Error("bogus id must fail")
	}
}

func TestCycleDetectionReportsCycle(t *testing.T) {
	res, _ := fixture(t)
	// A wash ordered after its own user: guaranteed cycle.
	tr := res.Schedule.TransportFor("o1", "o2")
	if tr == nil {
		t.Skip("no transport")
	}
	w := WashSpec{ID: "w1", Duration: 1,
		Culprits: []string{"op-" + tr.EdgeTo}, // after consumer op
		Before:   []string{tr.ID},             // before its transport
	}
	_, err := Build(res.Schedule, []WashSpec{w})
	if err == nil {
		t.Fatal("cycle not detected")
	}
	for _, id := range []string{"cycle [", "w1", tr.ID, "op-" + tr.EdgeTo} {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error does not name the cycle through %s: %v", id, err)
		}
	}
}

func TestApplyRejectsInfeasibleStarts(t *testing.T) {
	res, _ := fixture(t)
	plan, err := Build(res.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, len(plan.Tasks)) // everything at t=0: conflicts
	if _, err := plan.Apply(starts); err == nil {
		t.Fatal("all-zero starts must violate validation")
	}
}

func TestGreedyIdempotent(t *testing.T) {
	res, an := fixture(t)
	w := washFor(t, res, an)
	plan, err := Build(res.Schedule, []WashSpec{w})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := plan.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if g1.Makespan() != g2.Makespan() {
		t.Fatal("Greedy is not idempotent")
	}
	for _, tk := range g1.Tasks() {
		if g2.Task(tk.ID).Start != tk.Start {
			t.Fatalf("task %s start differs across runs", tk.ID)
		}
	}
}

// lineSchedule is an empty schedule on a 6x1 line: a flow port, four
// channel cells and a waste port.
func lineSchedule(t *testing.T) *schedule.Schedule {
	t.Helper()
	c := grid.NewChip("line", 6, 1)
	if _, err := c.AddPort("in", grid.FlowPort, geom.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPort("out", grid.WastePort, geom.Pt(5, 0)); err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= 4; x++ {
		if err := c.AddChannel(geom.Pt(x, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return schedule.New(c, assay.New("line"))
}

// span is the path over cells x0..x1 of the line.
func span(x0, x1 int) grid.Path {
	var cells []geom.Point
	for x := x0; x <= x1; x++ {
		cells = append(cells, geom.Pt(x, 0))
	}
	return grid.NewPath(cells...)
}

// TestZeroDurationTasksChainInDescendingID builds a base where three
// zero-duration tasks start together between a task that ends then and
// one that starts then. The former pairwise rule ordered such tasks in
// descending ID, so the chains must too: base order would put z1 before
// z2 on cell 2, against the reference's z2 before z1, and lose p before
// q.
func TestZeroDurationTasksChainInDescendingID(t *testing.T) {
	s := lineSchedule(t)
	for _, tk := range []struct {
		id         string
		start, end int
		path       grid.Path
	}{
		{"p", 0, 2, span(1, 3)},
		{"z1", 2, 2, span(2, 3)},
		{"z2", 2, 2, span(1, 2)},
		{"z3", 2, 2, span(3, 4)},
		{"q", 2, 4, span(2, 4)},
	} {
		s.MustAdd(&schedule.Task{ID: tk.id, Kind: schedule.Transport, Start: tk.start, End: tk.end,
			MinDuration: tk.end - tk.start, Path: tk.path, Fluid: "f"})
	}
	wash := WashSpec{ID: "w1", Path: span(0, 5), Targets: []geom.Point{geom.Pt(2, 0)}, Duration: 1}
	for _, washes := range [][]WashSpec{nil, {wash}} {
		if err := CheckAllPairs(s, washes); err != nil {
			t.Errorf("%d washes: %v", len(washes), err)
		}
	}
	plan, err := Build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Greedy(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range plan.Edges {
		got = append(got, plan.Tasks[e[0]].ID+">"+plan.Tasks[e[1]].ID)
	}
	for _, e := range []string{"z2>z1", "z3>z1", "z1>q", "z3>q"} {
		if !slices.Contains(got, e) {
			t.Errorf("edges %v lack %s", got, e)
		}
	}
}

// TestBuildRejectsUnindexableTasks pins that a task Build cannot index
// is an error, not a panic: a path cell off the chip, an operation
// without a device, a window that ends before it starts.
func TestBuildRejectsUnindexableTasks(t *testing.T) {
	for _, tc := range []struct {
		task *schedule.Task
		want string
	}{
		{&schedule.Task{ID: "t", Kind: schedule.Transport, Start: 0, End: 1, Path: grid.NewPath(geom.Pt(5, 0), geom.Pt(6, 0))}, "off the 6x1 chip"},
		{&schedule.Task{ID: "t", Kind: schedule.Transport, Start: 0, End: 1, Path: grid.NewPath(geom.Pt(0, -1))}, "off the 6x1 chip"},
		{&schedule.Task{ID: "op-o1", Kind: schedule.Operation, OpID: "o1", Start: 0, End: 1}, "has no device"},
		{&schedule.Task{ID: "t", Kind: schedule.Transport, Start: 3, End: 1, Path: span(1, 2)}, "invalid window"},
	} {
		s := lineSchedule(t)
		s.MustAdd(tc.task)
		if _, err := Build(s, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.task, err, tc.want)
		}
	}
	if _, err := Build(lineSchedule(t), []WashSpec{{ID: "w1", Path: grid.NewPath(geom.Pt(9, 9)), Duration: 1}}); err == nil {
		t.Error("a wash path off the chip must fail")
	}
}
