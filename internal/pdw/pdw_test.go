package pdw

import (
	"testing"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

// fixture synthesizes a serial mixing chain with real
// cross-contamination pressure: o3 reuses o1's mixer after a foreign
// fluid, so PDW must insert device and channel washes.
func fixture(t *testing.T) *synth.Result {
	t.Helper()
	a := assay.New("pdw-fx")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 2, Output: "f2",
		Reagents: []assay.FluidType{"r3"}})
	a.MustAddOp(&assay.Operation{ID: "o3", Kind: assay.Mix, Duration: 2, Output: "f3",
		Reagents: []assay.FluidType{"r4"}})
	a.MustAddEdge("o1", "o2")
	a.MustAddEdge("o2", "o3")
	res, err := synth.Synthesize(a, synth.Config{
		Devices: []synth.DeviceSpec{{Kind: grid.Mixer, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFixtureActuallyNeedsWashes(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Washes) == 0 {
		t.Fatal("fixture should force PDW washes")
	}
	if out.IntegratedRemovals == 0 {
		t.Error("fixture should allow at least one ψ-integration")
	}
}

// fastOpts keeps test solves quick.
func fastOpts() Options {
	return Options{Budget: solve.Budget{PerPath: 2 * time.Second, Window: 3 * time.Second}}
}

func TestOptimizeProducesCleanValidSchedule(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Schedule.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if err := contam.Verify(out.Schedule); err != nil {
		t.Fatalf("not clean: %v", err)
	}
	if out.Schedule.Makespan() < res.Schedule.Makespan() {
		t.Fatal("washes cannot make the assay faster than wash-free")
	}
}

func TestObjectiveComputed(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	m := out.Schedule.ComputeMetrics(res.Schedule)
	want := Objective(m, 0.3, 0.3, 0.4)
	if out.Objective != want {
		t.Fatalf("objective %g want %g", out.Objective, want)
	}
	if out.Objective <= 0 {
		t.Fatal("objective must be positive on a washed schedule")
	}
}

func TestPDWBeatsOrMatchesDAWO(t *testing.T) {
	res := fixture(t)
	pd, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	dw, err := dawo.Optimize(res.Schedule, dawo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := pd.Schedule.ComputeMetrics(res.Schedule)
	dm := dw.Schedule.ComputeMetrics(res.Schedule)
	if pm.NWash > dm.NWash {
		t.Errorf("N_wash: PDW %d > DAWO %d", pm.NWash, dm.NWash)
	}
	if pm.TAssay > dm.TAssay {
		t.Errorf("T_assay: PDW %d > DAWO %d", pm.TAssay, dm.TAssay)
	}
	t.Logf("PDW: %+v", pm)
	t.Logf("DAWO: %+v", dm)
}

func TestNecessityAblationWashesMore(t *testing.T) {
	res := fixture(t)
	on, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	offOpts := fastOpts()
	offOpts.DisableNecessity = true
	off, err := Optimize(res.Schedule, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	mOn := on.Schedule.ComputeMetrics(res.Schedule)
	mOff := off.Schedule.ComputeMetrics(res.Schedule)
	if mOn.NWash > mOff.NWash {
		t.Errorf("necessity analysis should not increase washes: %d vs %d", mOn.NWash, mOff.NWash)
	}
}

func TestMergeAblation(t *testing.T) {
	res := fixture(t)
	on, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	offOpts := fastOpts()
	offOpts.DisableMerge = true
	off, err := Optimize(res.Schedule, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	if on.Schedule == nil || off.Schedule == nil {
		t.Fatal("missing schedules")
	}
	mOn := on.Schedule.ComputeMetrics(res.Schedule)
	mOff := off.Schedule.ComputeMetrics(res.Schedule)
	if mOn.NWash > mOff.NWash {
		t.Errorf("merging should not increase wash count: %d vs %d", mOn.NWash, mOff.NWash)
	}
}

func TestHeuristicModesStillClean(t *testing.T) {
	res := fixture(t)
	opts := fastOpts()
	opts.HeuristicPaths = true
	opts.HeuristicWindows = true
	out, err := Optimize(res.Schedule, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := contam.Verify(out.Schedule); err != nil {
		t.Fatalf("heuristic mode not clean: %v", err)
	}
}

func TestIntegrationReducesActiveRemovals(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	integrated := 0
	for _, rm := range out.Schedule.TasksOf(schedule.Removal) {
		if rm.Integrated {
			integrated++
		}
	}
	if integrated != out.IntegratedRemovals {
		t.Fatalf("schedule shows %d integrated removals, result says %d",
			integrated, out.IntegratedRemovals)
	}
	// Integrated removals must be covered by their wash per Eq. 21
	// (Validate already enforces; assert explicitly for clarity).
	for _, rm := range out.Schedule.TasksOf(schedule.Removal) {
		if !rm.Integrated {
			continue
		}
		w := out.Schedule.Task(rm.IntegratedInto)
		if w == nil || !w.Path.Covers(rm.ExcessCells) {
			t.Fatalf("integration of %s broken", rm.ID)
		}
	}
}

func TestCleanAssayNeedsNoWashes(t *testing.T) {
	a := assay.New("clean")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1"}})
	res, err := synth.Synthesize(a, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Washes) != 0 {
		t.Fatalf("clean assay received %d washes", len(out.Washes))
	}
	if out.Schedule.Makespan() != res.Schedule.Makespan() {
		t.Fatal("clean assay must keep the base makespan")
	}
}

func TestDeterministic(t *testing.T) {
	res := fixture(t)
	o1, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if o1.Schedule.Makespan() != o2.Schedule.Makespan() || len(o1.Washes) != len(o2.Washes) {
		t.Fatalf("nondeterministic: %d/%d washes, %d/%d makespan",
			len(o1.Washes), len(o2.Washes), o1.Schedule.Makespan(), o2.Schedule.Makespan())
	}
}

func TestWindowMILPNotWorseThanGreedy(t *testing.T) {
	res := fixture(t)
	milpOut, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	gOpts := fastOpts()
	gOpts.HeuristicWindows = true
	gOut, err := Optimize(res.Schedule, gOpts)
	if err != nil {
		t.Fatal(err)
	}
	if milpOut.Schedule.Makespan() > gOut.Schedule.Makespan() {
		t.Fatalf("MILP windows (%d) worse than greedy (%d)",
			milpOut.Schedule.Makespan(), gOut.Schedule.Makespan())
	}
}

func TestDefaultWeights(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != 0.3 || o.Beta != 0.3 || o.Gamma != 0.4 {
		t.Fatalf("defaults = %v/%v/%v", o.Alpha, o.Beta, o.Gamma)
	}
	o2 := Options{Alpha: 1}.withDefaults()
	if o2.Alpha != 1 || o2.Beta != 0 {
		t.Fatal("explicit weights overridden")
	}
}

func TestSkipsReported(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if out.Skips == nil {
		t.Fatal("skip statistics missing")
	}
	total := 0
	for _, n := range out.Skips {
		total += n
	}
	if total == 0 {
		t.Fatal("no contamination events counted")
	}
}
