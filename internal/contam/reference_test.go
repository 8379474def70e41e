package contam_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// policies are the two Policy settings.
var policies = []contam.Policy{{}, {IgnoreFluidTypes: true}}

// sameAnalysis fails unless got and want hold the same events and skip
// counts, and the same requirements in the same order; a requirement's
// culprits and fluids are compared as sets, since their order is the
// order residue was met in.
func sameAnalysis(got, want *contam.Analysis) error {
	if !slices.Equal(got.Events, want.Events) {
		return fmt.Errorf("%d events, reference %d (or they differ)", len(got.Events), len(want.Events))
	}
	if !maps.Equal(got.Skips, want.Skips) {
		return fmt.Errorf("skips %v, reference %v", got.Skips, want.Skips)
	}
	if len(got.Requirements) != len(want.Requirements) {
		return fmt.Errorf("%d requirements, reference %d", len(got.Requirements), len(want.Requirements))
	}
	for k, r := range got.Requirements {
		w := want.Requirements[k]
		if r.Cell != w.Cell || r.ReadyAt != w.ReadyAt || r.Deadline != w.Deadline || r.BeforeTask != w.BeforeTask ||
			!sameSet(r.CulpritTasks, w.CulpritTasks) || !sameSet(r.Fluids, w.Fluids) {
			return fmt.Errorf("requirement %d is %v %v %v, reference %v %v %v",
				k, r, r.CulpritTasks, r.Fluids, w, w.CulpritTasks, w.Fluids)
		}
	}
	return nil
}

func sameSet[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// TestAnalysisMatchesMapReference checks the per-cell analysis against
// the map-based one under every policy, on the wash-free bases and on
// heuristic PDW's and DAWO's washed schedules (exact PDW's too on the
// small pools) of Table II, the benchmark's exact-small and
// heuristic-scale pools and a 30-instance default sweep.
func TestAnalysisMatchesMapReference(t *testing.T) {
	ctx := context.Background()
	small, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{Seed: 5, N: 8, MinOps: 6, MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	scale, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{Seed: 3, N: 5,
		MinOps: 24, MaxOps: 40, Level: corpus.LevelStructural})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{Seed: 1, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	exact := len(benchmarks.All()) + len(small)
	heuristic := pdw.Options{HeuristicPaths: true, HeuristicWindows: true}
	for k, b := range slices.Concat(benchmarks.All(), small, scale, sweep) {
		syn, err := b.SynthesizeContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		scheds := map[string]*schedule.Schedule{"base": syn.Schedule}
		p, err := pdw.OptimizeContext(ctx, syn.Schedule, heuristic)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		scheds["pdw-heuristic"] = p.Schedule
		if k < exact {
			p, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{Budget: solve.Budget{PerPath: time.Second, Window: time.Second}})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			scheds["pdw-exact"] = p.Schedule
		}
		d, err := dawo.OptimizeContext(ctx, syn.Schedule, dawo.Options{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		scheds["dawo"] = d.Schedule
		for name, s := range scheds {
			for _, pol := range policies {
				got, err := contam.AnalyzeWithPolicy(s, pol)
				if err != nil {
					t.Fatalf("%s %s %+v: %v", b.Name, name, pol, err)
				}
				if err := sameAnalysis(got, contam.AnalyzeMaps(s, pol)); err != nil {
					t.Errorf("%s %s %+v: %v", b.Name, name, pol, err)
				}
			}
		}
	}
}
