package corpus

import (
	"context"
	"testing"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/sim"
)

// TestHeuristicPDWWashesWhereDAWODoes checks that the heuristic wash
// cover is total: on every structurally valid draw of a seeded sweep
// that DAWO washes, heuristic PDW also returns a schedule that
// contam.Verify and the sim replay accept. The diamond draws of these
// sweeps hold target chains no single flush path covers, which
// washpath covers by halves. N_wash and L_wash are logged next to
// DAWO's.
func TestHeuristicPDWWashesWhereDAWODoes(t *testing.T) {
	sizes := []int{80, 160}
	if testing.Short() {
		sizes = sizes[:1]
	}
	ctx := context.Background()
	for _, ops := range sizes {
		set, err := GenerateSweep(ctx, SweepConfig{Seed: 3, N: 3, MinOps: ops, MaxOps: ops, Level: LevelStructural})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range set {
			syn, err := b.SynthesizeContext(ctx)
			if err != nil {
				t.Fatalf("%s: synthesis: %v", b.Name, err)
			}
			base := syn.Schedule
			dres, err := dawo.OptimizeContext(ctx, base, dawo.Options{})
			if err != nil {
				t.Logf("%s: DAWO does not wash it (%v); skipped", b.Name, err)
				continue
			}
			pres, err := pdw.OptimizeContext(ctx, base, pdw.Options{HeuristicPaths: true, HeuristicWindows: true})
			if err != nil {
				t.Errorf("%s: DAWO washes it but heuristic PDW fails: %v", b.Name, err)
				continue
			}
			s := pres.Schedule
			if err := s.Validate(); err != nil {
				t.Errorf("%s: PDW schedule invalid: %v", b.Name, err)
				continue
			}
			if err := contam.Verify(s); err != nil {
				t.Errorf("%s: PDW schedule contaminated: %v", b.Name, err)
				continue
			}
			if vs := sim.Run(s).ByClass(sim.Contamination); len(vs) > 0 {
				t.Errorf("%s: sim replay: %v", b.Name, vs[0])
				continue
			}
			pm, dm := s.ComputeMetrics(base), dres.Schedule.ComputeMetrics(base)
			t.Logf("%s: N_wash PDW %d DAWO %d; L_wash PDW %.0f mm DAWO %.0f mm",
				b.Name, pm.NWash, dm.NWash, pm.LWashMM, dm.LWashMM)
		}
	}
}
