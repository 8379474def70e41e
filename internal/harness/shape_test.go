package harness

import (
	"context"
	"testing"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/synth"
)

// TestTableIIShape is the repository's headline integration test: on
// every Table II benchmark, PDW must match or beat the DAWO baseline on
// all four reported metrics — the qualitative claim of the paper's
// evaluation. Quick solver budgets keep the run fast; cmd/pdwbench and
// the root bench suite repeat it with larger budgets.
func TestTableIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep skipped in -short mode")
	}
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			out, err := RunBenchmarkContext(context.Background(), b, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			r := out.Row
			if r.PDWNWash > r.DAWONWash {
				t.Errorf("N_wash: PDW %d > DAWO %d", r.PDWNWash, r.DAWONWash)
			}
			if r.PDWLWash > r.DAWOLWash {
				t.Errorf("L_wash: PDW %.0f > DAWO %.0f", r.PDWLWash, r.DAWOLWash)
			}
			if r.PDWTDelay > r.DAWOTDelay {
				t.Errorf("T_delay: PDW %d > DAWO %d", r.PDWTDelay, r.DAWOTDelay)
			}
			if r.PDWTAssay > r.DAWOTAssay {
				t.Errorf("T_assay: PDW %d > DAWO %d", r.PDWTAssay, r.DAWOTAssay)
			}
			if r.PDWWashTime > r.DAWOWashTime {
				t.Errorf("wash time: PDW %d > DAWO %d", r.PDWWashTime, r.DAWOWashTime)
			}
			// Average waiting time is not directly optimized (the MILP
			// minimizes makespan), so near-ties can tip either way;
			// only a clear regression fails.
			if r.PDWAvgWait > r.DAWOAvgWait*1.1+1 {
				t.Errorf("avg wait: PDW %.2f >> DAWO %.2f", r.PDWAvgWait, r.DAWOAvgWait)
			}
			t.Logf("%s: DAWO N=%d L=%.0f Td=%d Ta=%d | PDW N=%d L=%.0f Td=%d Ta=%d (int=%d)",
				b.Name, r.DAWONWash, r.DAWOLWash, r.DAWOTDelay, r.DAWOTAssay,
				r.PDWNWash, r.PDWLWash, r.PDWTDelay, r.PDWTAssay, out.PDW.IntegratedRemovals)
		})
	}
}

// TestMotivatingExampleShape runs both methods on the paper's running
// example chip (Fig. 2(a)) and checks the Fig. 3 qualitative claims:
// PDW uses no more washes than DAWO and integrates removals.
func TestMotivatingExampleShape(t *testing.T) {
	a, chip, err := benchmarks.Motivating()
	if err != nil {
		t.Fatal(err)
	}
	syn, err := synth.SynthesizeOnChip(a, chip)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pdw.CompressBase(syn.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dawo.OptimizeContext(context.Background(), syn.Schedule, dawo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pdw.Optimize(syn.Schedule, quickOpts().PDW)
	if err != nil {
		t.Fatal(err)
	}
	dm := dres.Schedule.ComputeMetrics(ref)
	pm := pres.Schedule.ComputeMetrics(ref)
	if pm.NWash > dm.NWash {
		t.Errorf("N_wash: PDW %d > DAWO %d", pm.NWash, dm.NWash)
	}
	if pm.TAssay > dm.TAssay {
		t.Errorf("T_assay: PDW %d > DAWO %d", pm.TAssay, dm.TAssay)
	}
	if pres.IntegratedRemovals == 0 {
		t.Error("motivating example should exercise ψ-integration (Fig. 3 integrates *1, *2, *6)")
	}
	t.Logf("motivating: DAWO N=%d Ta=%d | PDW N=%d Ta=%d int=%d",
		dm.NWash, dm.TAssay, pm.NWash, pm.TAssay, pres.IntegratedRemovals)
}

// TestRingTopologyShape runs both optimizers on a ring-architecture
// chip, where every path contends for the loop: PDW must still win and
// both outputs must stay clean.
func TestRingTopologyShape(t *testing.T) {
	a := assay.New("ring-shape")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 2, Output: "f2",
		Reagents: []assay.FluidType{"r3"}})
	a.MustAddOp(&assay.Operation{ID: "o3", Kind: assay.Heat, Duration: 3, Output: "f3"})
	a.MustAddEdge("o1", "o2")
	a.MustAddEdge("o2", "o3")
	syn, err := synth.Synthesize(a, synth.Config{
		Topology: synth.Ring,
		Devices: []synth.DeviceSpec{
			{Kind: grid.Mixer, Count: 2}, {Kind: grid.Heater, Count: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pdw.CompressBase(syn.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dawo.OptimizeContext(context.Background(), syn.Schedule, dawo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pdw.Optimize(syn.Schedule, quickOpts().PDW)
	if err != nil {
		t.Fatal(err)
	}
	if err := contam.Verify(pres.Schedule); err != nil {
		t.Fatalf("PDW on ring not clean: %v", err)
	}
	dm := dres.Schedule.ComputeMetrics(ref)
	pm := pres.Schedule.ComputeMetrics(ref)
	if pm.NWash > dm.NWash || pm.TAssay > dm.TAssay {
		t.Errorf("ring: PDW N=%d Ta=%d vs DAWO N=%d Ta=%d", pm.NWash, pm.TAssay, dm.NWash, dm.TAssay)
	}
	t.Logf("ring: DAWO N=%d Ta=%d | PDW N=%d Ta=%d", dm.NWash, dm.TAssay, pm.NWash, pm.TAssay)
}
