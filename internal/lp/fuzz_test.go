package lp

import (
	"errors"
	"math"
	"testing"
)

// FuzzSolve decodes arbitrary bytes into a small LP and checks the
// solver's contract: no panic, no optimum that fails lp's own check,
// and any Optimal result actually satisfies every constraint and bound.
// Run with `go test -fuzz FuzzSolve ./internal/lp` for continuous
// fuzzing; the seed corpus runs in normal test mode.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 1, 255, 0, 0})
	f.Add([]byte{4, 6, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]%5) + 1 // 1..5 variables
		m := int(data[1]%6) + 1 // 1..6 constraints
		pos := 2
		next := func() float64 {
			if pos >= len(data) {
				pos = 2
			}
			v := float64(int(data[pos]) - 128)
			pos++
			return v / 8
		}
		p := NewProblem(n)
		for i := 0; i < n; i++ {
			p.Objective[i] = next()
			lo := math.Abs(next())
			hi := lo + math.Abs(next())
			p.SetBounds(i, lo, hi)
		}
		for r := 0; r < m; r++ {
			coefs := map[int]float64{}
			for i := 0; i < n; i++ {
				coefs[i] = next()
			}
			rel := Rel(int(math.Abs(next())) % 3)
			p.AddConstraint(coefs, rel, next()*4, "fz")
		}
		res, err := Solve(p)
		if errors.Is(err, ErrOptimumCheck) {
			t.Fatalf("optimum off the problem: %v", err)
		}
		if err != nil {
			// Other structured errors are fine; panics and off-problem
			// optima are the bug class.
			return
		}
		if res.Status != Optimal {
			return
		}
		// The optimal point must be feasible.
		for i := 0; i < n; i++ {
			if res.X[i] < p.lower(i)-1e-5 || res.X[i] > p.upper(i)+1e-5 {
				t.Fatalf("bound violation: x[%d]=%g not in [%g,%g]",
					i, res.X[i], p.lower(i), p.upper(i))
			}
		}
		for _, c := range p.Constraints {
			s := 0.0
			for i, cf := range c.Coefs {
				s += cf * res.X[i]
			}
			switch c.Rel {
			case LE:
				if s > c.RHS+1e-4 {
					t.Fatalf("LE violation: %g > %g", s, c.RHS)
				}
			case GE:
				if s < c.RHS-1e-4 {
					t.Fatalf("GE violation: %g < %g", s, c.RHS)
				}
			case EQ:
				if math.Abs(s-c.RHS) > 1e-4 {
					t.Fatalf("EQ violation: %g != %g", s, c.RHS)
				}
			}
		}
	})
}
