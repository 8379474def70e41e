package replan_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/solve"
)

// TestBuildMatchesAllPairs checks Build's per-cell chains and free
// pairs against the all-pairs reference on Table II, the benchmark's
// exact-small and heuristic-scale pools and a 30-instance default
// sweep: the wash-free plan, the plans of heuristic PDW's and DAWO's
// washes (exact PDW's too on the small pools), and the plan of the
// first half of heuristic PDW's washes.
func TestBuildMatchesAllPairs(t *testing.T) {
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
	for k, b := range slices.Concat(benchmarks.All(), small, scale, sweep) {
		syn, err := b.SynthesizeContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		p, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{HeuristicPaths: true, HeuristicWindows: true})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		d, err := dawo.OptimizeContext(ctx, syn.Schedule, dawo.Options{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		cases := [][]replan.WashSpec{nil, p.Washes, p.Washes[:len(p.Washes)/2], d.Washes}
		if k < exact {
			e, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{Budget: solve.Budget{PerPath: time.Second, Window: time.Second}})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			cases = append(cases, e.Washes)
		}
		for _, washes := range cases {
			if err := replan.CheckAllPairs(syn.Schedule, washes); err != nil {
				t.Errorf("%s with %d washes: %v", b.Name, len(washes), err)
			}
		}
	}
}
