package corpus

import (
	"context"
	"testing"
	"time"
)

// FuzzGenerate drives arbitrary parameter tuples through the full
// generate → validate → solve pipeline. Whatever the inputs, Generate
// must never panic; every accepted instance must be deterministic
// (same params, same fingerprint) and structurally valid; and small
// instances additionally go through the washability proof, whose
// solver stack (synthesis, PDW heuristics, DAWO, verifier, sim
// replay) must not panic either — rejection is fine, crashing is not.
// The committed corpus under testdata/fuzz/FuzzGenerate seeds one
// tuple per DAG shape plus the boundary cases that found nothing by
// accident: zero/negative/huge op counts, out-of-range shapes and
// densities.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(1), 8, 0, 0.5, 0.5)
	f.Add(uint64(2), 10, 1, 1.0, 0.0)
	f.Add(uint64(3), 12, 2, 0.25, 1.0)
	f.Add(uint64(4), 6, 3, 0.6, 0.5)
	f.Add(uint64(0), 0, 0, 0.0, 0.0)
	f.Add(uint64(99), -5, 17, -1.0, 2.0)
	f.Add(uint64(7), 1, 2, 1.5, 0.3)
	f.Add(^uint64(0), 200000, -1, 0.9, 0.9)

	f.Fuzz(func(t *testing.T, seed uint64, ops, shape int, density, reagentRate float64) {
		p := Params{
			Seed:        seed,
			Ops:         ops,
			Shape:       Shape(shape),
			Density:     density,
			ReagentRate: reagentRate,
		}
		b, err := GenerateContext(context.Background(), p)
		if err != nil {
			return // out-of-range params are rejected, not crashed on
		}
		// Accepted instances are pure functions of their params.
		b2, err := GenerateContext(context.Background(), p)
		if err != nil {
			t.Fatalf("second Generate of accepted params failed: %v", err)
		}
		f1, err := Fingerprint(b)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		f2, err := Fingerprint(b2)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		if f1 != f2 {
			t.Fatalf("same params, different fingerprints: %s vs %s", f1, f2)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := Validate(ctx, b, LevelStructural); err != nil {
			t.Fatalf("generated instance fails structural validation: %v", err)
		}
		// Every accepted instance goes through the full washability
		// proof — the solve stage of the pipeline — under a short
		// deadline. Unwashable and over-budget draws are legitimate
		// (the error is discarded); the assertion is that the solvers
		// never panic and, thanks to the checkpointed hot loops, return
		// promptly when the deadline expires. This used to be gated on
		// ops <= 12 && reagentRate <= 1 because reagent-heavy draws
		// overran the deadline by tens of seconds and tripped the
		// fuzzer's hang detector; the seed corpus keeps one
		// reagent-heavy tuple (seed-slow-pipeline) to pin exactly that
		// bounded-overrun behavior.
		wctx, wcancel := context.WithTimeout(ctx, 2*time.Second)
		_ = Validate(wctx, b, LevelWashable)
		wcancel()
	})
}
