package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pathdriverwash/internal/solve"
)

// pivotHeavyProblem builds the dense LP that BenchmarkProgressOverhead
// and the progress tests solve.
func pivotHeavyProblem(n int) *Problem {
	p := NewProblem(n)
	for v := 0; v < n; v++ {
		p.Objective[v] = float64(-(v%7 + 1))
	}
	for r := 0; r < n-5; r++ {
		c := map[int]float64{}
		for v := 0; v < n; v++ {
			c[v] = float64((v*r)%5 + 1)
		}
		p.AddConstraint(c, LE, float64(40+r), "cap")
	}
	return p
}

// coverProblem builds a seeded covering LP whose phase 1 takes ~200
// pivots at n=40.
func coverProblem(n int) *Problem {
	rng := rand.New(rand.NewSource(1))
	p := NewProblem(n)
	for v := 0; v < n; v++ {
		p.Objective[v] = float64(rng.Intn(9) + 1)
	}
	for r := 0; r < n; r++ {
		c := map[int]float64{}
		for v := 0; v < n; v++ {
			c[v] = float64(rng.Intn(5))
		}
		p.AddConstraint(c, GE, float64(10+rng.Intn(20)), "cover")
	}
	return p
}

// expiringCtx reports cancellation from its n-th Err poll on, so a
// solve is cut off mid-pivot-loop at a deterministic point.
type expiringCtx struct {
	context.Context
	polls, n int
}

func (c *expiringCtx) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCanceledSolveReportsPivots pins the pivot accounting of a
// relaxation cut off by cancellation: the error return carries the
// pivots it spent, equal to what it published live.
func TestCanceledSolveReportsPivots(t *testing.T) {
	prog := solve.NewProgress()
	ctx := &expiringCtx{Context: solve.WithProgress(context.Background(), prog), n: 100}
	res, err := SolveContext(ctx, coverProblem(40))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations == 0 {
		t.Fatal("canceled solve reported no pivots; fixture cancels too early")
	}
	if got := prog.Snapshot().Pivots; got != int64(res.Iterations) {
		t.Fatalf("progress pivots = %d, result iterations = %d", got, res.Iterations)
	}
}

func TestProgressPivotsPublished(t *testing.T) {
	prog := solve.NewProgress()
	ctx := solve.WithProgress(context.Background(), prog)
	res, err := SolveContext(ctx, pivotHeavyProblem(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("solve took no pivots; fixture too easy")
	}
	// The final flush reconciles the stride remainder, so the published
	// total matches the result exactly.
	if got := prog.Snapshot().Pivots; got != int64(res.Iterations) {
		t.Fatalf("progress pivots = %d, want %d", got, res.Iterations)
	}
}

func TestProgressAbsentIsFree(t *testing.T) {
	// Without a progress view on the context, the solve must not panic
	// and publishes nowhere (the nil-receiver contract).
	res, err := SolveContext(context.Background(), pivotHeavyProblem(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("solve took no pivots")
	}
}

// BenchmarkProgressOverhead quantifies the live-progress tax on the
// simplex pivot loop (DESIGN.md "Progress snapshot cost contract": the
// attached variant stays within 2% of the bare one). The publisher only
// runs at the existing ctxCheckEvery (64-pivot) flush cadence, so the
// cost is one pointer compare per pivot batch plus one atomic add per
// flush.
func BenchmarkProgressOverhead(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := SolveContext(ctx, pivotHeavyProblem(30)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("progress", func(b *testing.B) {
		ctx := solve.WithProgress(context.Background(), solve.NewProgress())
		for i := 0; i < b.N; i++ {
			if _, err := SolveContext(ctx, pivotHeavyProblem(30)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
