package main

import (
	"context"
	"fmt"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/pkg/pathdriver"
)

// The input pools are fixed; the workload seed only permutes the order
// in which a pass visits them (and, on service-mix, drives the
// traffic). Fixed pools keep the work per pass identical across seeds,
// so one seed's metrics compare with another's. Each instance's
// fingerprint (corpus.Fingerprint: the canonical assay document's hash)
// is pinned: a change to the generator or to the Table II definitions
// would otherwise swap the benchmark's inputs silently, and it fails
// the run instead.

// exactSmallSweep gives small instances whose every ILP proves
// optimality in under a second at the exact budgets, so wall time is
// time to a proven optimum. Most of it is the window MILP.
var exactSmallSweep = corpus.SweepConfig{Seed: 5, N: 8, MinOps: 6, MaxOps: 8}

// heuristicScaleSweep gives instances of 24 to 40 operations. They are
// validated structurally only (the washability proof would run the
// heuristic under test inside setup); every op re-checks washability.
var heuristicScaleSweep = corpus.SweepConfig{Seed: 3, N: 5, MinOps: 24, MaxOps: 40, Level: corpus.LevelStructural}

var fingerprints = map[string]string{
	// exactSmallSweep
	"c0000-layered-o8":  "c727d2bd8a5bd45d",
	"c0001-pipeline-o6": "2d2440c2ce9f7de1",
	"c0002-diamond-o7":  "4fa9d6af318b1e90",
	"c0003-panel-o7":    "185a757c06a42daa",
	"c0004-layered-o6":  "74c959344ed3b0d1",
	"c0005-pipeline-o7": "6d962d6feb01f985",
	"c0006-diamond-o8":  "225e7b58a453555d",
	"c0007-panel-o7":    "1d8e55a49d634fcd",
	// heuristicScaleSweep
	"c0000-layered-o39":  "1ac32a1c7b0554d4",
	"c0001-pipeline-o34": "4d6ff1b9a953690e",
	"c0002-diamond-o28":  "05391b1221dcd570",
	"c0003-panel-o31":    "956dca2ef22e0572",
	"c0004-layered-o30":  "6990101cd2f87cec",
	// Table II
	"PCR":          "07c02ff94d06e976",
	"IVD":          "c97a68b9810229c2",
	"ProteinSplit": "ebece4a4e5d46cca",
	"Kinase act-1": "0ab22e1cb9c15fab",
	"Kinase act-2": "60cc0da0cd6b180e",
	"Synthetic1":   "d9cbc16f6eb5be52",
	"Synthetic2":   "e9fff29477ff598b",
	"Synthetic3":   "faa8e0e0d46e09a3",
}

// checkPinned fails unless every instance is one the benchmark pins.
func checkPinned(set []*benchmarks.Benchmark) error {
	for _, b := range set {
		want, ok := fingerprints[b.Name]
		if !ok {
			return fmt.Errorf("input %q is not a pinned benchmark input", b.Name)
		}
		got, err := corpus.Fingerprint(b)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("input %q changed: fingerprint %s, pinned %s", b.Name, got, want)
		}
	}
	return nil
}

// sweepPool generates the first n instances of a pinned sweep (n <= 0:
// all of them).
func sweepPool(ctx context.Context, cfg corpus.SweepConfig, n int) ([]*benchmarks.Benchmark, error) {
	if n > 0 && n < cfg.N {
		cfg.N = n
	}
	set, err := corpus.GenerateSweep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return set, checkPinned(set)
}

// tableIIPool returns the first n Table II benchmarks (n <= 0: all
// eight) after synthesizing each once, which checks that every input
// is usable before timing starts.
func tableIIPool(ctx context.Context, n int) ([]*benchmarks.Benchmark, error) {
	set := benchmarks.All()
	if n > 0 && n < len(set) {
		set = set[:n]
	}
	if err := checkPinned(set); err != nil {
		return nil, err
	}
	for _, b := range set {
		syn, err := pathdriver.Synthesize(ctx, b.Assay, b.Config)
		if err != nil {
			return nil, fmt.Errorf("%s: synthesize: %w", b.Name, err)
		}
		if err := syn.Schedule.Validate(); err != nil {
			return nil, fmt.Errorf("%s: wash-free schedule: %w", b.Name, err)
		}
	}
	return set, nil
}
