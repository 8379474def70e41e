package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func TestSolveContextPreCanceledErrors(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{-3, -2}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4, "c1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (lp has no usable partial iterate)", err)
	}
}

func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{-3, -2}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4, "c1")
	p.AddConstraint(map[int]float64{0: 1, 1: 3}, LE, 6, "c2")
	plain := solveOK(t, p)
	r, err := SolveContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != plain.Status || !approx(r.Obj, plain.Obj) {
		t.Fatalf("context solve diverged: %+v vs %+v", r, plain)
	}
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
// pivots it spent.
func TestCanceledSolveReportsPivots(t *testing.T) {
	ctx := &expiringCtx{Context: context.Background(), n: 100}
	res, err := SolveContext(ctx, coverProblem(40))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations == 0 {
		t.Fatal("canceled solve reported no pivots; fixture cancels too early")
	}
}
