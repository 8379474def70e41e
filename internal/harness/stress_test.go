package harness

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

// TestStressLargeAssay pushes the full pipeline beyond the paper's
// largest benchmark: a 22-operation, 4-lane protocol on a 20-device
// chip. Asserts correctness invariants plus the headline makespan
// ordering — at this size the solvers run in best-effort territory.
func TestStressLargeAssay(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	a := assay.New("stress")
	// Four lanes of mix -> heat -> mix -> detect, then pairwise merges
	// and a final chain: 4*4 + 4*2 + ... = 28 ops.
	for lane := 1; lane <= 4; lane++ {
		sfx := fmt.Sprintf("%d", lane)
		a.MustAddOp(&assay.Operation{ID: "m1" + sfx, Kind: assay.Mix, Duration: 2,
			Output:   assay.FluidType("a" + sfx),
			Reagents: []assay.FluidType{assay.FluidType("r" + sfx), "buffer"}})
		a.MustAddOp(&assay.Operation{ID: "h1" + sfx, Kind: assay.Heat, Duration: 3,
			Output: assay.FluidType("b" + sfx)})
		a.MustAddOp(&assay.Operation{ID: "m2" + sfx, Kind: assay.Mix, Duration: 2,
			Output:   assay.FluidType("c" + sfx),
			Reagents: []assay.FluidType{assay.FluidType("q" + sfx)}})
		a.MustAddOp(&assay.Operation{ID: "t1" + sfx, Kind: assay.Detect, Duration: 2,
			Output: assay.FluidType("c" + sfx)})
		a.MustAddEdge("m1"+sfx, "h1"+sfx)
		a.MustAddEdge("h1"+sfx, "m2"+sfx)
		a.MustAddEdge("m2"+sfx, "t1"+sfx)
	}
	// Pairwise merges: lanes 1+2 -> g1, lanes 3+4 -> g2; then g1+g2.
	a.MustAddOp(&assay.Operation{ID: "g1", Kind: assay.Mix, Duration: 3, Output: "g1f"})
	a.MustAddOp(&assay.Operation{ID: "g2", Kind: assay.Mix, Duration: 3, Output: "g2f"})
	a.MustAddOp(&assay.Operation{ID: "g3", Kind: assay.Mix, Duration: 3, Output: "g3f"})
	a.MustAddOp(&assay.Operation{ID: "hg", Kind: assay.Heat, Duration: 4, Output: "g3h"})
	a.MustAddOp(&assay.Operation{ID: "tg", Kind: assay.Detect, Duration: 3, Output: "g3h"})
	a.MustAddOp(&assay.Operation{ID: "sg", Kind: assay.Store, Duration: 2, Output: "g3h"})
	a.MustAddEdge("t11", "g1")
	a.MustAddEdge("t12", "g1")
	a.MustAddEdge("t13", "g2")
	a.MustAddEdge("t14", "g2")
	a.MustAddEdge("g1", "g3")
	a.MustAddEdge("g2", "g3")
	a.MustAddEdge("g3", "hg")
	a.MustAddEdge("hg", "tg")
	a.MustAddEdge("tg", "sg")
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Ops()) != 22 {
		t.Fatalf("ops = %d want 22 (4 lanes x 4 + 6 merge/finish)", len(a.Ops()))
	}

	syn, err := synth.Synthesize(a, synth.Config{Devices: []synth.DeviceSpec{
		{Kind: grid.Mixer, Count: 7}, {Kind: grid.Heater, Count: 5},
		{Kind: grid.Detector, Count: 5}, {Kind: grid.Storage, Count: 2},
		{Kind: grid.Filter, Count: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("stress chip %dx%d, %d tasks, wash-free makespan %ds",
		syn.Chip.W, syn.Chip.H, len(syn.Schedule.Tasks()), syn.Schedule.Makespan())

	dres, err := dawo.OptimizeContext(context.Background(), syn.Schedule, dawo.Options{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pdw.Optimize(syn.Schedule, pdw.Options{
		Budget:    solve.Budget{PerPath: 300 * time.Millisecond, Window: 5 * time.Second},
		MaxRounds: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]interface {
		Validate() error
	}{"DAWO": dres.Schedule, "PDW": pres.Schedule} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	if err := contam.Verify(pres.Schedule); err != nil {
		t.Errorf("PDW not clean: %v", err)
	}
	if err := contam.Verify(dres.Schedule); err != nil {
		t.Errorf("DAWO not clean: %v", err)
	}
	pm := pres.Schedule.ComputeMetrics(syn.Schedule)
	dm := dres.Schedule.ComputeMetrics(syn.Schedule)
	t.Logf("stress: DAWO N=%d Ta=%d | PDW N=%d Ta=%d int=%d",
		dm.NWash, dm.TAssay, pm.NWash, pm.TAssay, pm.IntegratedRemovals)
	if pm.TAssay > dm.TAssay {
		t.Errorf("PDW (%d) slower than DAWO (%d) at stress scale", pm.TAssay, dm.TAssay)
	}
}
