package milp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"pathdriverwash/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-5*(1+math.Abs(b)) }

func solveOpt(t *testing.T, p *Problem) Result {
	t.Helper()
	r, err := Solve(p, Options{TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if r.Status != Optimal {
		t.Fatalf("status = %v want optimal", r.Status)
	}
	if err := p.CheckFeasible(r.X); err != nil {
		t.Fatalf("returned point infeasible: %v", err)
	}
	return r
}

func TestKnapsack(t *testing.T) {
	// max 10a+6b+4c s.t. a+b+c<=2 binaries -> a,b -> 16.
	p := NewProblem(0)
	a, b, c := p.AddBinary(), p.AddBinary(), p.AddBinary()
	p.SetObjective(a, -10)
	p.SetObjective(b, -6)
	p.SetObjective(c, -4)
	p.LP.AddConstraint(map[int]float64{a: 1, b: 1, c: 1}, lp.LE, 2, "cap")
	r := solveOpt(t, p)
	if !approx(r.Obj, -16) {
		t.Fatalf("obj = %g want -16 (x=%v)", r.Obj, r.X)
	}
}

func TestFractionalLPIntegerGap(t *testing.T) {
	// max x s.t. 2x <= 3, x integer in [0,5] -> x=1 (LP gives 1.5).
	p := NewProblem(0)
	x := p.AddContinuous(0, 5)
	p.Integer[x] = true
	p.SetObjective(x, -1)
	p.LP.AddConstraint(map[int]float64{x: 2}, lp.LE, 3, "half")
	r := solveOpt(t, p)
	if !approx(r.Obj, -1) || !approx(r.X[x], 1) {
		t.Fatalf("x = %v obj %g want x=1", r.X, r.Obj)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y s.t. y >= 2.5 - 2k, y >= 2k - 0.5, k binary.
	// k=0 -> y=2.5 ; k=1 -> y=1.5. Optimum 1.5.
	p := NewProblem(0)
	y := p.AddContinuous(0, 100)
	k := p.AddBinary()
	p.SetObjective(y, 1)
	p.LP.AddConstraint(map[int]float64{y: 1, k: 2}, lp.GE, 2.5, "a")
	p.LP.AddConstraint(map[int]float64{y: 1, k: -2}, lp.GE, -0.5, "b")
	r := solveOpt(t, p)
	if !approx(r.Obj, 1.5) || !approx(r.X[k], 1) {
		t.Fatalf("obj = %g x = %v want 1.5 with k=1", r.Obj, r.X)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := NewProblem(0)
	a := p.AddBinary()
	b := p.AddBinary()
	p.LP.AddConstraint(map[int]float64{a: 1, b: 1}, lp.GE, 3, "impossible")
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v want infeasible", r.Status)
	}
}

func TestUnboundedMILP(t *testing.T) {
	p := NewProblem(0)
	x := p.AddContinuous(0, math.Inf(1))
	p.SetObjective(x, -1)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unbounded {
		t.Fatalf("status = %v want unbounded", r.Status)
	}
	// The root-unbounded return carries its work and wall time like
	// every other return.
	if r.Wall <= 0 || r.Nodes != 1 {
		t.Fatalf("root-unbounded result wall=%v nodes=%d, want a nonzero wall and 1 node", r.Wall, r.Nodes)
	}
}

func TestIncumbentPruning(t *testing.T) {
	// Give the optimum as an incumbent; solver must still report optimal
	// with the same value.
	p := NewProblem(0)
	a, b := p.AddBinary(), p.AddBinary()
	p.SetObjective(a, -3)
	p.SetObjective(b, -2)
	p.LP.AddConstraint(map[int]float64{a: 1, b: 1}, lp.LE, 1, "one")
	r, err := Solve(p, Options{Incumbent: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || !approx(r.Obj, -3) {
		t.Fatalf("r = %+v", r)
	}
}

func TestBadIncumbentRejected(t *testing.T) {
	p := NewProblem(0)
	a := p.AddBinary()
	p.LP.AddConstraint(map[int]float64{a: 1}, lp.LE, 0, "zero")
	if _, err := Solve(p, Options{Incumbent: []float64{1}}); err == nil {
		t.Fatal("infeasible incumbent must be rejected")
	}
	if _, err := Solve(p, Options{Incumbent: []float64{0.5}}); err == nil {
		t.Fatal("fractional incumbent must be rejected")
	}
	if _, err := Solve(p, Options{Incumbent: []float64{0, 0}}); err == nil {
		t.Fatal("wrong-length incumbent must be rejected")
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A tiny time limit with a valid incumbent must return Feasible (or
	// Optimal if the root solves instantly) and never lose the incumbent.
	p := NewProblem(0)
	var vars []int
	for i := 0; i < 14; i++ {
		vars = append(vars, p.AddBinary())
	}
	coefs := map[int]float64{}
	for i, v := range vars {
		p.SetObjective(v, -float64(1+i%5))
		coefs[v] = float64(1 + (i*7)%4)
	}
	p.LP.AddConstraint(coefs, lp.LE, 9, "cap")
	inc := make([]float64, len(vars))
	r, err := Solve(p, Options{TimeLimit: time.Nanosecond, Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Feasible && r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if r.X == nil {
		t.Fatal("incumbent lost")
	}
}

func TestNodeLimit(t *testing.T) {
	p := NewProblem(0)
	var coefs = map[int]float64{}
	for i := 0; i < 12; i++ {
		v := p.AddBinary()
		p.SetObjective(v, -float64(3+i%7))
		coefs[v] = float64(2 + i%5)
	}
	p.LP.AddConstraint(coefs, lp.LE, 11, "cap")
	r, err := Solve(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes > 1 {
		t.Fatalf("explored %d nodes with MaxNodes=1", r.Nodes)
	}
	if r.Status != Limit && r.Status != Feasible && r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestGap(t *testing.T) {
	r := Result{Status: Optimal, Obj: 5, Bound: 5}
	if r.Gap() != 0 {
		t.Error("optimal gap must be 0")
	}
	r = Result{Status: Feasible, Obj: 10, Bound: 8}
	if !approx(r.Gap(), 0.2) {
		t.Errorf("gap = %g want 0.2", r.Gap())
	}
	r = Result{Status: Infeasible}
	if !math.IsInf(r.Gap(), 1) {
		t.Error("infeasible gap must be +inf")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible(limit)", Infeasible: "infeasible",
		Unbounded: "unbounded", Limit: "limit",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q want %q", s, s.String(), want)
		}
	}
}

func TestIntegerMarksLengthChecked(t *testing.T) {
	p := NewProblem(2)
	p.Integer = p.Integer[:1]
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("mismatched Integer length must error")
	}
}

// TestRandomKnapsacksAgainstBruteForce cross-checks B&B against explicit
// enumeration of all 2^n binary assignments.
func TestRandomKnapsacksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(8) // up to 10 binaries
		p := NewProblem(0)
		values := make([]float64, n)
		weights := make([]float64, n)
		coefs := map[int]float64{}
		for i := 0; i < n; i++ {
			v := p.AddBinary()
			values[i] = float64(rng.Intn(20) - 5)
			weights[i] = float64(rng.Intn(9) + 1)
			p.SetObjective(v, values[i])
			coefs[v] = weights[i]
		}
		cap := float64(rng.Intn(20) + 1)
		p.LP.AddConstraint(coefs, lp.LE, cap, "cap")
		// Optional extra GE constraint to exercise phase 1.
		if trial%3 == 0 {
			ge := map[int]float64{}
			for i := 0; i < n; i++ {
				ge[i] = 1
			}
			p.LP.AddConstraint(ge, lp.GE, 1, "atleast1")
		}

		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			cnt := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					v += values[i]
					cnt++
				}
			}
			if w > cap {
				continue
			}
			if trial%3 == 0 && cnt < 1 {
				continue
			}
			if v < best {
				best = v
			}
		}
		r, err := Solve(p, Options{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(best, 1) {
			if r.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, solver %v", trial, r.Status)
			}
			continue
		}
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		if math.Abs(r.Obj-best) > 1e-5 {
			t.Fatalf("trial %d: solver %g brute force %g", trial, r.Obj, best)
		}
	}
}

// TestDisjunctiveSchedulingShape solves the exact big-M structure the
// time-window ILP of Sec. III uses (Eqs. 3/8/19-20): two unit tasks on a
// shared resource must serialize; makespan 2, not 1.
func TestDisjunctiveSchedulingShape(t *testing.T) {
	const M = 1000
	p := NewProblem(0)
	s1 := p.AddContinuous(0, M)
	s2 := p.AddContinuous(0, M)
	mk := p.AddContinuous(0, M)
	k := p.AddBinary()
	p.SetObjective(mk, 1)
	// (1-k)M + s2 >= s1 + 1  ->  s2 - s1 - 1 >= -(1-k)M -> s2 - s1 + M*(1-k) >= 1
	p.LP.AddConstraint(map[int]float64{s2: 1, s1: -1, k: -M}, lp.GE, 1-M, "k0")
	// kM + s1 >= s2 + 1
	p.LP.AddConstraint(map[int]float64{s1: 1, s2: -1, k: M}, lp.GE, 1, "k1")
	p.LP.AddConstraint(map[int]float64{mk: 1, s1: -1}, lp.GE, 1, "mk1")
	p.LP.AddConstraint(map[int]float64{mk: 1, s2: -1}, lp.GE, 1, "mk2")
	r := solveOpt(t, p)
	if !approx(r.Obj, 2) {
		t.Fatalf("makespan = %g want 2 (x=%v)", r.Obj, r.X)
	}
}

func TestGeneralIntegerBranching(t *testing.T) {
	// max 7x+2y s.t. 3x+y<=10, x,y int -> x=3,y=1: 23.
	p := NewProblem(0)
	x := p.AddContinuous(0, 100)
	y := p.AddContinuous(0, 100)
	p.Integer[x], p.Integer[y] = true, true
	p.SetObjective(x, -7)
	p.SetObjective(y, -2)
	p.LP.AddConstraint(map[int]float64{x: 3, y: 1}, lp.LE, 10, "cap")
	r := solveOpt(t, p)
	if !approx(r.Obj, -23) {
		t.Fatalf("obj = %g want -23 (x=%v)", r.Obj, r.X)
	}
}

// TestRelaxationBoundProperty: on random 0-1 problems, the root LP
// relaxation value never exceeds the MILP optimum (minimization), and
// the reported Bound is a valid lower bound on the incumbent.
func TestRelaxationBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(6)
		p := NewProblem(0)
		coefs := map[int]float64{}
		ge := map[int]float64{}
		for i := 0; i < n; i++ {
			v := p.AddBinary()
			p.SetObjective(v, float64(rng.Intn(15)-7))
			coefs[v] = float64(rng.Intn(5) + 1)
			ge[v] = 1
		}
		p.LP.AddConstraint(coefs, lp.LE, float64(rng.Intn(12)+2), "cap")
		p.LP.AddConstraint(ge, lp.GE, 1, "atleast")

		relax := p.LP
		relaxed, err := lp.Solve(&relax)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(p, Options{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == Infeasible {
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		if relaxed.Status == lp.Optimal && relaxed.Obj > res.Obj+1e-6 {
			t.Fatalf("trial %d: relaxation %g above optimum %g", trial, relaxed.Obj, res.Obj)
		}
		if res.Bound > res.Obj+1e-6 {
			t.Fatalf("trial %d: bound %g above incumbent %g", trial, res.Bound, res.Obj)
		}
	}
}

// TestRoundedIncumbentChecked pins the incumbent check: the relaxation
// puts x within intTol of 1, but rounding it up violates the row by
// five units, so the rounded point must not be accepted, let alone
// claimed optimal.
func TestRoundedIncumbentChecked(t *testing.T) {
	p := NewProblem(0)
	x := p.AddBinary()
	p.SetObjective(x, -1)
	p.LP.AddConstraint(map[int]float64{x: 1e7}, lp.LE, 1e7-5, "tight")
	r, err := Solve(p, Options{TimeLimit: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.X != nil {
		if err := p.CheckFeasible(r.X); err != nil {
			t.Fatalf("status %v returned an infeasible point: %v", r.Status, err)
		}
	}
	if r.Status == Optimal {
		t.Fatalf("claims optimality after discarding a subproblem: obj %g, x %v", r.Obj, r.X)
	}
}

// TestOffProblemRelaxationFails pins what milp does with a relaxation
// that fails lp's check: the solve fails with lp.ErrOptimumCheck rather
// than prune or branch on a bound it cannot trust. The row's coefficient
// is below lp's pivot tolerance, so the root relaxation stops at x's
// upper bound, off the row.
func TestOffProblemRelaxationFails(t *testing.T) {
	p := NewProblem(0)
	x := p.AddContinuous(0, 1e11)
	p.Integer[x] = true
	p.SetObjective(x, -1)
	p.LP.AddConstraint(map[int]float64{x: 1e-10}, lp.LE, 1, "tiny")
	if _, err := Solve(p, Options{TimeLimit: 5 * time.Second}); !errors.Is(err, lp.ErrOptimumCheck) {
		t.Fatalf("err = %v, want lp.ErrOptimumCheck", err)
	}
}
