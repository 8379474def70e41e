package replan_test

import (
	"context"
	"testing"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/replan"
)

// TestClosureMatchesMapReference checks the bitset closure against the
// map-based one on the plans PDW builds for the exact-small and
// heuristic-scale benchmark pools and Table II: the wash-free plan and
// the plan of heuristic PDW's washes, per instance.
func TestClosureMatchesMapReference(t *testing.T) {
	ctx := context.Background()
	exactSmall, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{Seed: 5, N: 8, MinOps: 6, MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	heuristicScale, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{Seed: 3, N: 5,
		MinOps: 24, MaxOps: 40, Level: corpus.LevelStructural})
	if err != nil {
		t.Fatal(err)
	}
	pool := append(append(exactSmall, heuristicScale...), benchmarks.All()...)
	for _, b := range pool {
		syn, err := b.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		res, err := pdw.Optimize(syn.Schedule, pdw.Options{HeuristicPaths: true, HeuristicWindows: true})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, washes := range [][]replan.WashSpec{nil, res.Washes} {
			plan, err := replan.Build(syn.Schedule, washes)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if err := replan.CheckClosure(plan); err != nil {
				t.Errorf("%s with %d washes: %v", b.Name, len(washes), err)
			}
		}
	}
}
