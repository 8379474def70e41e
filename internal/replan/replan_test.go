package replan

import (
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
	if len(plan.FreePairs) != 0 {
		t.Fatalf("no washes, so no free pairs; got %v", plan.FreePairs)
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
	order, err := plan.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(plan.Tasks))
	for i, v := range order {
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
	for _, fp := range plan.FreePairs {
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
	if id, ok := removalTransportID("rm-o1-o2", "o1", "o2"); !ok || id != "tr-o1-o2" {
		t.Errorf("got %q %v", id, ok)
	}
	if id, ok := removalTransportID("rm-inj-o1-1", "", "o1"); !ok || id != "inj-o1-1" {
		t.Errorf("got %q %v", id, ok)
	}
	if _, ok := removalTransportID("bogus", "", ""); ok {
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
	plan, err := Build(res.Schedule, []WashSpec{w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error lacks cycle description: %v", err)
	}
	if _, err := plan.Greedy(); err == nil {
		t.Fatal("greedy must refuse a cyclic plan")
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

// TestClosureOnCyclicPlan requires the closure to finish on a cyclic
// plan and to agree with the map-based reference there too.
func TestClosureOnCyclicPlan(t *testing.T) {
	p := &Plan{Tasks: make([]*schedule.Task, 5), Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 0}}}
	c := p.reachability()
	ref := p.reachabilityMap()
	for i := range 5 {
		for j := range 5 {
			if c.has(i, j) != ref[i][j] {
				t.Errorf("%d reaches %d: bitset %v, map %v", i, j, c.has(i, j), ref[i][j])
			}
		}
	}
}
