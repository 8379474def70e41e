package lp

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(b)) }

func solveOK(t *testing.T, p *Problem) Result {
	t.Helper()
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if r.Status != Optimal {
		t.Fatalf("status = %v want optimal", r.Status)
	}
	return r
}

// checkFeasible asserts x satisfies all constraints and bounds of p.
func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	if err := p.CheckFeasible(x); err != nil {
		t.Error(err)
	}
}

// TestCheckFeasible pins the feasibility rule lp applies to its own
// optima and milp to its incumbents: a point that breaks a bound by
// more than BoundTol, or any relation by more than RowTol, fails with
// an error naming it, and one within the tolerances passes.
func TestCheckFeasible(t *testing.T) {
	p := NewProblem(4)
	p.SetBounds(0, 1, 4)
	p.AddConstraint(map[int]float64{1: 1}, LE, 5, "le")
	p.AddConstraint(map[int]float64{2: 1}, GE, 2, "ge")
	p.AddConstraint(map[int]float64{3: 1}, EQ, 3, "eq")
	for _, tc := range []struct {
		name string
		i    int // the entry moved off the feasible point {2, 0, 2, 3}
		v    float64
		want string // "" when the point must pass
	}{
		{"feasible", 0, 2, ""},
		{"within tolerances", 0, 4 + BoundTol/2, ""},
		{"le within tolerance", 1, 5 + RowTol/2, ""},
		{"below lower bound", 0, 1 - 2*BoundTol, "bounds"},
		{"above upper bound", 0, 4 + 2*BoundTol, "bounds"},
		{"le broken", 1, 5 + 2*RowTol, `"le"`},
		{"ge broken", 2, 2 - 2*RowTol, `"ge"`},
		{"eq broken above", 3, 3 + 2*RowTol, `"eq"`},
		{"eq broken below", 3, 3 - 2*RowTol, `"eq"`},
	} {
		x := []float64{2, 0, 2, 3}
		x[tc.i] = tc.v
		err := p.CheckFeasible(x)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: x = %v: err = %v, want one naming %s", tc.name, x, err, tc.want)
		}
	}
	if p.CheckFeasible([]float64{2, 0, 2}) == nil {
		t.Error("a point of the wrong length passed")
	}
}

// TestSolveRejectsOffProblemOptimum pins that Solve runs the check on
// its own optimum. The row's coefficient is below the pivot tolerance,
// so the ratio test never lets that row block x0: simplex stops at x0's
// upper bound 1e11, where the row reads 10 <= 1.
func TestSolveRejectsOffProblemOptimum(t *testing.T) {
	p := NewProblem(1)
	p.Objective[0] = -1
	p.SetBounds(0, 0, 1e11)
	p.AddConstraint(map[int]float64{0: 1e-10}, LE, 1, "tiny")
	_, err := Solve(p)
	if !errors.Is(err, ErrOptimumCheck) || !strings.Contains(err.Error(), `"tiny"`) {
		t.Fatalf("err = %v, want ErrOptimumCheck naming the row", err)
	}
}

func TestSimpleMaximization(t *testing.T) {
	// max 3x+2y s.t. x+y<=4, x+3y<=6  -> x=4,y=0, obj 12.
	p := NewProblem(2)
	p.Objective = []float64{-3, -2}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4, "c1")
	p.AddConstraint(map[int]float64{0: 1, 1: 3}, LE, 6, "c2")
	r := solveOK(t, p)
	if !approx(r.Obj, -12) {
		t.Fatalf("obj = %g want -12 (x=%v)", r.Obj, r.X)
	}
	checkFeasible(t, p, r.X)
}

func TestEqualityConstraint(t *testing.T) {
	// min x+y s.t. x+2y = 4, x,y>=0 -> y=2,x=0 obj 2.
	p := NewProblem(2)
	p.Objective = []float64{1, 1}
	p.AddConstraint(map[int]float64{0: 1, 1: 2}, EQ, 4, "eq")
	r := solveOK(t, p)
	if !approx(r.Obj, 2) {
		t.Fatalf("obj = %g want 2", r.Obj)
	}
	checkFeasible(t, p, r.X)
}

func TestGEConstraints(t *testing.T) {
	// min 2x+3y s.t. x+y>=10, x>=3 -> x=10? obj: min at y=0,x=10 -> 20? or x=3,y=7 -> 27. So x=10,y=0: 20.
	p := NewProblem(2)
	p.Objective = []float64{2, 3}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 10, "sum")
	p.AddConstraint(map[int]float64{0: 1}, GE, 3, "xmin")
	r := solveOK(t, p)
	if !approx(r.Obj, 20) {
		t.Fatalf("obj = %g want 20 (x=%v)", r.Obj, r.X)
	}
	checkFeasible(t, p, r.X)
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.Objective = []float64{1}
	p.AddConstraint(map[int]float64{0: 1}, LE, 1, "le")
	p.AddConstraint(map[int]float64{0: 1}, GE, 2, "ge")
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v want infeasible", r.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.Objective = []float64{-1} // max x, no upper bound
	p.AddConstraint(map[int]float64{0: 1}, GE, 0, "ge0")
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unbounded {
		t.Fatalf("status = %v want unbounded", r.Status)
	}
}

func TestUpperBounds(t *testing.T) {
	// max x+y with x<=2, y<=3 via bounds only.
	p := NewProblem(2)
	p.Objective = []float64{-1, -1}
	p.SetBounds(0, 0, 2)
	p.SetBounds(1, 0, 3)
	r := solveOK(t, p)
	if !approx(r.Obj, -5) {
		t.Fatalf("obj = %g want -5", r.Obj)
	}
	checkFeasible(t, p, r.X)
}

func TestLowerBoundShift(t *testing.T) {
	// min x+y with x>=2, y>=1.5, x+y>=5 -> obj 5.
	p := NewProblem(2)
	p.Objective = []float64{1, 1}
	p.SetBounds(0, 2, math.Inf(1))
	p.SetBounds(1, 1.5, math.Inf(1))
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 5, "sum")
	r := solveOK(t, p)
	if !approx(r.Obj, 5) {
		t.Fatalf("obj = %g want 5 (x=%v)", r.Obj, r.X)
	}
	if r.X[0] < 2-1e-9 || r.X[1] < 1.5-1e-9 {
		t.Fatalf("bounds violated: %v", r.X)
	}
}

func TestFixedVariableElimination(t *testing.T) {
	// x fixed to 3; min y s.t. y >= x -> y=3.
	p := NewProblem(2)
	p.Objective = []float64{0, 1}
	p.SetBounds(0, 3, 3)
	p.AddConstraint(map[int]float64{1: 1, 0: -1}, GE, 0, "ylink")
	r := solveOK(t, p)
	if !approx(r.X[0], 3) || !approx(r.X[1], 3) {
		t.Fatalf("x = %v want [3 3]", r.X)
	}
}

func TestAllVariablesFixed(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{2, 5}
	p.SetBounds(0, 1, 1)
	p.SetBounds(1, 2, 2)
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4, "ok")
	r := solveOK(t, p)
	if !approx(r.Obj, 12) {
		t.Fatalf("obj = %g want 12", r.Obj)
	}
}

func TestAllFixedInfeasibleConstant(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 2, 2)
	p.AddConstraint(map[int]float64{0: 1}, LE, 1, "bad")
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v want infeasible", r.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -3 is x >= 3; min x -> 3.
	p := NewProblem(1)
	p.Objective = []float64{1}
	p.AddConstraint(map[int]float64{0: -1}, LE, -3, "negrhs")
	r := solveOK(t, p)
	if !approx(r.Obj, 3) {
		t.Fatalf("obj = %g want 3", r.Obj)
	}
}

func TestNegativeRHSGE(t *testing.T) {
	// -x >= -5 is x <= 5; max x -> 5.
	p := NewProblem(1)
	p.Objective = []float64{-1}
	p.AddConstraint(map[int]float64{0: -1}, GE, -5, "negge")
	r := solveOK(t, p)
	if !approx(r.Obj, -5) {
		t.Fatalf("obj = %g want -5", r.Obj)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate vertex: multiple constraints through origin.
	p := NewProblem(2)
	p.Objective = []float64{-1, -1}
	p.AddConstraint(map[int]float64{0: 1, 1: -1}, LE, 0, "d1")
	p.AddConstraint(map[int]float64{0: -1, 1: 1}, LE, 0, "d2")
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 8, "cap")
	r := solveOK(t, p)
	if !approx(r.Obj, -8) {
		t.Fatalf("obj = %g want -8 (x=%v)", r.Obj, r.X)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Two identical equalities: redundant row must be dropped cleanly.
	p := NewProblem(2)
	p.Objective = []float64{1, 2}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 3, "e1")
	p.AddConstraint(map[int]float64{0: 2, 1: 2}, EQ, 6, "e2")
	r := solveOK(t, p)
	if !approx(r.Obj, 3) { // put everything on x
		t.Fatalf("obj = %g want 3 (x=%v)", r.Obj, r.X)
	}
	checkFeasible(t, p, r.X)
}

func TestValidateErrors(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 0}); err == nil {
		t.Error("zero variables must error")
	}
	p := NewProblem(1)
	p.SetBounds(0, -1, 5)
	if _, err := Solve(p); err == nil {
		t.Error("negative lower bound must error")
	}
	p2 := NewProblem(1)
	p2.SetBounds(0, 5, 1)
	if _, err := Solve(p2); err == nil {
		t.Error("empty bound range must error")
	}
	p3 := NewProblem(1)
	p3.AddConstraint(map[int]float64{4: 1}, LE, 1, "badvar")
	if _, err := Solve(p3); err == nil {
		t.Error("out-of-range variable must error")
	}
}

func TestBigMStyleDisjunction(t *testing.T) {
	// The scheduling formulation's shape: with the binary relaxed to
	// [0,1], the LP bound must be <= the integral optimum.
	// s2 >= e1 - (1-k)*M ; s1 >= e2 - k*M ; durations 3 and 4.
	const M = 1000
	p := NewProblem(3) // s1, s2, k
	p.Objective = []float64{0, 1, 0}
	p.SetBounds(2, 0, 1)
	// s2 + M*k >= e1 = s1+3  ->  s2 - s1 + M*k >= 3
	p.AddConstraint(map[int]float64{1: 1, 0: -1, 2: M}, GE, 3, "o12")
	// s1 - s2 + M*(1-k) >= 4 -> s1 - s2 - M*k >= 4 - M
	p.AddConstraint(map[int]float64{0: 1, 1: -1, 2: -M}, GE, 4-M, "o21")
	r := solveOK(t, p)
	if r.Obj > 3+1e-6 {
		t.Fatalf("relaxation bound %g should be <= 3", r.Obj)
	}
}

// TestRandomLPsAgainstEnumeration cross-checks the simplex against a
// brute-force vertex enumeration on random 2-variable LPs.
func TestRandomLPsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nc := 2 + rng.Intn(4)
		p := NewProblem(2)
		p.Objective = []float64{float64(rng.Intn(11) - 5), float64(rng.Intn(11) - 5)}
		type row struct{ a, b, rhs float64 }
		var rows []row
		for i := 0; i < nc; i++ {
			r := row{float64(rng.Intn(7) - 3), float64(rng.Intn(7) - 3), float64(rng.Intn(12))}
			rows = append(rows, r)
			p.AddConstraint(map[int]float64{0: r.a, 1: r.b}, LE, r.rhs, "r")
		}
		// Box to keep everything bounded.
		p.SetBounds(0, 0, 10)
		p.SetBounds(1, 0, 10)

		feasible := func(x, y float64) bool {
			if x < -1e-9 || y < -1e-9 || x > 10+1e-9 || y > 10+1e-9 {
				return false
			}
			for _, r := range rows {
				if r.a*x+r.b*y > r.rhs+1e-9 {
					return false
				}
			}
			return true
		}
		// Enumerate candidate vertices: intersections of all boundary
		// pairs (constraints + box edges).
		type lineq struct{ a, b, c float64 } // ax+by=c
		var lines []lineq
		for _, r := range rows {
			lines = append(lines, lineq{r.a, r.b, r.rhs})
		}
		lines = append(lines,
			lineq{1, 0, 0}, lineq{0, 1, 0}, lineq{1, 0, 10}, lineq{0, 1, 10})
		best := math.Inf(1)
		found := false
		for i := 0; i < len(lines); i++ {
			for j := i + 1; j < len(lines); j++ {
				d := lines[i].a*lines[j].b - lines[j].a*lines[i].b
				if math.Abs(d) < 1e-12 {
					continue
				}
				x := (lines[i].c*lines[j].b - lines[j].c*lines[i].b) / d
				y := (lines[i].a*lines[j].c - lines[j].a*lines[i].c) / d
				if feasible(x, y) {
					found = true
					v := p.Objective[0]*x + p.Objective[1]*y
					if v < best {
						best = v
					}
				}
			}
		}
		r, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !found {
			if r.Status != Infeasible {
				t.Fatalf("trial %d: enumeration says infeasible, solver says %v", trial, r.Status)
			}
			continue
		}
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v, enumeration found obj %g", trial, r.Status, best)
		}
		if math.Abs(r.Obj-best) > 1e-5 {
			t.Fatalf("trial %d: solver obj %g, enumeration %g (x=%v)", trial, r.Obj, best, r.X)
		}
	}
}

func TestIterationCountReported(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{-1, -1}
	p.AddConstraint(map[int]float64{0: 1, 1: 2}, LE, 4, "a")
	p.AddConstraint(map[int]float64{0: 2, 1: 1}, LE, 4, "b")
	r := solveOK(t, p)
	if r.Iterations <= 0 {
		t.Fatalf("iterations = %d, expected > 0", r.Iterations)
	}
}

func TestRelString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("Rel strings wrong")
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Fatal("Status strings wrong")
	}
}
