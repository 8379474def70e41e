package sim

import (
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

func synthFixture(t *testing.T) *synth.Result {
	t.Helper()
	a := assay.New("sim-fx")
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

func TestWashFreeScheduleHasContaminationOnly(t *testing.T) {
	res := synthFixture(t)
	rep := Run(res.Schedule)
	// The wash-free schedule is physically executable except for
	// residue crossings (that is exactly why washes exist).
	for _, v := range rep.Violations {
		if !strings.Contains(v.Reason, "residue") {
			t.Errorf("unexpected violation class: %v", v)
		}
	}
	if rep.Clean() {
		t.Fatal("wash-free fixture should show residue crossings")
	}
}

func TestPDWScheduleSimulatesClean(t *testing.T) {
	res := synthFixture(t)
	out, err := pdw.Optimize(res.Schedule, pdw.Options{
		Budget: solve.Budget{PerPath: time.Second, Window: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(out.Schedule)
	if !rep.CleanExceptHolding() {
		t.Fatalf("PDW schedule physically violates: %v", rep.Violations)
	}
	if n := len(rep.ByClass(Holding)); n > 0 {
		t.Logf("holding hazards (paper constraint gap, see DESIGN.md): %d", n)
	}
	if rep.Steps != out.Schedule.Makespan() {
		t.Errorf("steps = %d", rep.Steps)
	}
}

func TestDAWOScheduleSimulatesClean(t *testing.T) {
	res := synthFixture(t)
	out, err := dawo.Optimize(res.Schedule, dawo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(out.Schedule)
	if !rep.CleanExceptHolding() {
		t.Fatalf("DAWO schedule physically violates: %v", rep.Violations)
	}
}

func TestAllBenchmarksSimulateCleanUnderPDW(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark sweep skipped in -short mode")
	}
	for _, b := range benchmarks.All() {
		syn, err := b.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		out, err := pdw.Optimize(syn.Schedule, pdw.Options{
			Budget: solve.Budget{PerPath: 500 * time.Millisecond, Window: 2 * time.Second},
		})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		rep := Run(out.Schedule)
		if !rep.CleanExceptHolding() {
			bad := append(rep.ByClass(Contamination),
				append(rep.ByClass(Occupancy), rep.ByClass(Ordering)...)...)
			for _, v := range bad[:min(5, len(bad))] {
				t.Errorf("%s: %v", b.Name, v)
			}
		}
		if n := len(rep.ByClass(Holding)); n > 0 {
			t.Logf("%s: %d holding hazards (paper constraint gap)", b.Name, n)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Failure injection: corrupt a clean schedule in targeted ways and
// assert the simulator flags each corruption class.
func TestFailureInjection(t *testing.T) {
	res := synthFixture(t)
	out, err := pdw.Optimize(res.Schedule, pdw.Options{
		Budget: solve.Budget{PerPath: time.Second, Window: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := out.Schedule

	// 1. Move a product transport before its producer ends.
	s1 := base.Clone()
	if tr := s1.TransportFor("o1", "o2"); tr != nil {
		prod := s1.OpTask("o1")
		tr.Start = prod.End - 1
		tr.End = tr.Start + 1
		rep := Run(s1)
		if rep.Clean() {
			t.Error("early transport not flagged")
		}
	}

	// 2. Make two transports overlap on the same cells.
	s2 := base.Clone()
	var moved bool
	ts := s2.Tasks()
	for i := 0; i < len(ts) && !moved; i++ {
		for j := i + 1; j < len(ts); j++ {
			a, b := ts[i], ts[j]
			if a.Kind.Fluidic() && b.Kind.Fluidic() && a.Active() && b.Active() &&
				a.Path.Overlaps(b.Path) && !a.Overlaps(b) {
				b.Start, b.End = a.Start, a.Start+b.MinDuration
				moved = true
				break
			}
		}
	}
	if moved {
		rep := Run(s2)
		found := false
		for _, v := range rep.Violations {
			if strings.Contains(v.Reason, "occupied") {
				found = true
			}
		}
		if !found {
			t.Error("cell double-occupancy not flagged")
		}
	}

	// 3. Delete a wash: residue crossings must reappear.
	s3 := base.Clone()
	removedWash := false
	for _, tk := range s3.Tasks() {
		if tk.Kind.String() == "wash" {
			// Neutralize the wash by pushing it past the horizon.
			tk.Start = 10000
			tk.End = 10001
			removedWash = true
		}
	}
	if removedWash {
		rep := Run(s3)
		found := false
		for _, v := range rep.Violations {
			if strings.Contains(v.Reason, "residue") {
				found = true
			}
		}
		if !found {
			t.Error("deleted washes not flagged as residue crossings")
		}
	}
}

func TestDeviceContentsReported(t *testing.T) {
	res := synthFixture(t)
	rep := Run(res.Schedule)
	// o3 is a sink: after its disposal the devices should be empty of
	// all but possibly in-flight leftovers; the map must at least exist.
	if rep.DeviceContents == nil {
		t.Fatal("no device contents")
	}
}
