// Package lp implements a two-phase primal simplex solver for linear
// programs. With internal/milp it solves the paper's ILPs (Sec. III,
// solved on Gurobi there) as the test oracle of the exact searches
// that solve those models in production; no non-test code imports it.
//
// Problems are stated over n decision variables with per-variable bounds
// [Lower_i, Upper_i] (Lower_i >= 0) and a list of linear constraints with
// <=, >= or = relations. The solver minimizes; maximize by negating the
// objective.
//
// The implementation is a dense-tableau two-phase simplex: phase 1
// minimizes the sum of artificial variables to find a basic feasible
// solution, phase 2 optimizes the real objective. Dantzig pricing is used
// until an iteration threshold, after which Bland's rule guarantees
// termination on degenerate problems.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pathdriverwash/internal/solve"
)

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // sum <= rhs
	GE            // sum >= rhs
	EQ            // sum == rhs
)

// String renders the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Constraint is one linear row: sum_i Coefs[i]*x_i Rel RHS.
// Coefs is sparse: absent variables have coefficient zero.
type Constraint struct {
	Coefs map[int]float64
	Rel   Rel
	RHS   float64
	// Name is optional, used in error and debug output.
	Name string
}

// Problem is a linear program in minimization form.
type Problem struct {
	// NumVars is the number of decision variables, indexed 0..NumVars-1.
	NumVars int
	// Objective holds the cost coefficients c (len NumVars); missing
	// entries (shorter slice) are treated as zero.
	Objective []float64
	// Lower and Upper are per-variable bounds. Nil slices mean all zeros
	// and all +inf respectively. Lower bounds must be >= 0.
	Lower, Upper []float64
	// Constraints are the rows.
	Constraints []Constraint
}

// NewProblem allocates a problem with n variables, zero objective,
// bounds [0, +inf).
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, Objective: make([]float64, n)}
}

// AddConstraint appends a row and returns its index.
func (p *Problem) AddConstraint(coefs map[int]float64, rel Rel, rhs float64, name string) int {
	cp := make(map[int]float64, len(coefs))
	for i, v := range coefs {
		if v != 0 {
			cp[i] = v
		}
	}
	p.Constraints = append(p.Constraints, Constraint{Coefs: cp, Rel: rel, RHS: rhs, Name: name})
	return len(p.Constraints) - 1
}

// SetBounds sets [lo, hi] bounds for variable i, growing the bound
// slices on demand.
func (p *Problem) SetBounds(i int, lo, hi float64) {
	for len(p.Lower) < p.NumVars {
		p.Lower = append(p.Lower, 0)
	}
	for len(p.Upper) < p.NumVars {
		p.Upper = append(p.Upper, math.Inf(1))
	}
	p.Lower[i], p.Upper[i] = lo, hi
}

func (p *Problem) lower(i int) float64 {
	if i < len(p.Lower) {
		return p.Lower[i]
	}
	return 0
}

func (p *Problem) upper(i int) float64 {
	if i < len(p.Upper) {
		return p.Upper[i]
	}
	return math.Inf(1)
}

func (p *Problem) cost(i int) float64 {
	if i < len(p.Objective) {
		return p.Objective[i]
	}
	return 0
}

// Status reports the outcome of a solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	// X is the optimal point (len NumVars) when Status == Optimal.
	X []float64
	// Obj is the optimal objective value when Status == Optimal.
	Obj float64
	// Iterations counts simplex pivots across both phases. It is set
	// on every return, errors included, so a relaxation cut off by
	// cancellation still accounts for the pivots it spent.
	Iterations int
}

// ErrIterationLimit is returned if simplex exceeds its pivot budget,
// which indicates a bug or a numerically hostile model.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// ErrOptimumCheck is returned, wrapped with the row or bound it breaks,
// when simplex ends at an optimum that fails CheckFeasible on the
// problem as stated: rounding or a coefficient below the pivot
// tolerance has carried the tableau off the problem.
var ErrOptimumCheck = errors.New("lp: optimal point fails its check")

// maxPivot is the pivot budget of one solve.
const maxPivot = 200000

// The numeric tolerances of the simplex and of the branch & bound and
// feasibility checks built on it (internal/milp uses them too).
const (
	// eps is the smallest pivot element, the ratio test's tie width and
	// the bound gap below which a variable is fixed: below it is noise.
	eps = 1e-9
	// feasTol is the slack a constant row or the phase-1 objective may
	// keep and still count as satisfied: the residue of exact pivots.
	feasTol = 1e-7
	// costTol is how negative a reduced cost must be for its column to
	// enter: smaller ones are rounding, and entering them would cycle.
	costTol = 1e-8
	// IntTol is how far from an integer a relaxation value may lie and
	// still count as integral: the pivots' rounding error, and no more.
	IntTol = 1e-6
	// CrossTol is how far a branch's lower bound may pass its upper bound
	// before the node is infeasible: the rounding of equal bounds only.
	CrossTol = 1e-12
	// PruneTol is the margin by which a node's relaxation bound must
	// beat the incumbent to be explored: a tie cannot improve on it.
	PruneTol = 1e-9
	// ImproveTol is the margin by which an integral point must beat the
	// incumbent to replace it, so a re-found optimum keeps the first.
	ImproveTol = 1e-12
	// BoundTol is how far a checked point may lie outside a variable's
	// bounds or, at an integer variable, off an integer.
	BoundTol = 1e-6
	// RowTol is how far a checked point may break a row: looser than
	// BoundTol, since a row sums the rounding of many terms.
	RowTol = 1e-5
)

// Solve optimizes the problem with two-phase simplex.
func Solve(p *Problem) (Result, error) {
	return SolveContext(context.Background(), p)
}

// SolveContext is Solve honoring cancellation: the pivot loop checks ctx
// every few dozen iterations and returns ctx.Err() once it is done.
// Simplex keeps no feasible iterate worth returning mid-flight, so
// cancellation surfaces as an error here; integer layers above treat it
// like an iteration limit and fall back to their own incumbents.
func SolveContext(ctx context.Context, p *Problem) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	t, elim, shift, err := buildTableau(p)
	if err != nil {
		if IsInfeasibleConst(err) {
			return Result{Status: Infeasible}, nil
		}
		return Result{}, err
	}
	res := Result{Status: Optimal}
	if t != nil {
		t.check = solve.NewCheckpoint(ctx)
		res, err = t.solveTwoPhase()
		res.Iterations = t.iters
		if err != nil || res.Status != Optimal {
			return res, err
		}
	}
	// Map the tableau solution back to problem variables; with no
	// tableau every variable was eliminated.
	x := make([]float64, p.NumVars)
	obj := 0.0
	for i := 0; i < p.NumVars; i++ {
		if fx, ok := elim[i]; ok {
			x[i] = fx
		} else {
			x[i] = res.X[t.colOf[i]] + shift[i]
		}
		obj += p.cost(i) * x[i]
	}
	res.X, res.Obj = x, obj
	if err := p.CheckFeasible(x); err != nil {
		return res, fmt.Errorf("%w: %w", ErrOptimumCheck, err)
	}
	return res, nil
}

// CheckFeasible verifies that x lies within BoundTol of every
// variable's bounds and within RowTol of satisfying every row, on the
// problem as stated.
func (p *Problem) CheckFeasible(x []float64) error {
	if len(x) != p.NumVars {
		return fmt.Errorf("lp: point has %d entries for %d variables", len(x), p.NumVars)
	}
	for i, v := range x {
		if lo, hi := p.lower(i), p.upper(i); v < lo-BoundTol || v > hi+BoundTol {
			return fmt.Errorf("lp: x[%d]=%g violates bounds [%g,%g]", i, v, lo, hi)
		}
	}
	for _, c := range p.Constraints {
		s := 0.0
		for i, cf := range c.Coefs {
			s += cf * x[i]
		}
		if c.Rel == LE && s > c.RHS+RowTol || c.Rel == GE && s < c.RHS-RowTol ||
			c.Rel == EQ && math.Abs(s-c.RHS) > RowTol {
			return fmt.Errorf("lp: constraint %q violated: lhs=%g rel=%v rhs=%g", c.Name, s, c.Rel, c.RHS)
		}
	}
	return nil
}

func (p *Problem) validate() error {
	if p.NumVars <= 0 {
		return errors.New("lp: problem has no variables")
	}
	for i := 0; i < p.NumVars; i++ {
		lo, hi := p.lower(i), p.upper(i)
		if lo < 0 {
			return fmt.Errorf("lp: variable %d has negative lower bound %g", i, lo)
		}
		if hi < lo-eps {
			return fmt.Errorf("lp: variable %d has empty bound range [%g,%g]", i, lo, hi)
		}
	}
	for _, c := range p.Constraints {
		for i := range c.Coefs {
			if i < 0 || i >= p.NumVars {
				return fmt.Errorf("lp: constraint %q references variable %d (have %d)", c.Name, i, p.NumVars)
			}
		}
	}
	return nil
}

// tableau is the dense simplex tableau. Columns are: structural columns
// (one per non-eliminated variable, shifted to lower bound 0), slack
// columns, artificial columns; the last column is the RHS.
type tableau struct {
	m, n    int // rows, structural+slack columns (artificials appended)
	a       [][]float64
	basis   []int
	nArt    int
	cost    []float64 // phase-2 cost per column
	colOf   []int     // problem var -> structural column (-1 if eliminated)
	rowName []string
	iters   int
	check   solve.Checkpoint // optional cancellation, polled every ctxCheckEvery pivots
}

// ctxCheckEvery is the pivot interval between cancellation checks: small
// enough that cancellation lands within a handful of dense-row pivots,
// large enough that the poll never shows up in profiles.
const ctxCheckEvery = solve.CheckpointStride

// buildTableau converts the problem to equational standard form.
// Variables with Lower==Upper are eliminated (substituted). All other
// variables are shifted by their lower bound; finite upper bounds become
// extra <= rows. Returns the tableau, the eliminated values, and the
// per-variable shifts. A nil tableau means everything was eliminated
// and all constraints held.
func buildTableau(p *Problem) (*tableau, map[int]float64, []float64, error) {
	elim := map[int]float64{}
	shift := make([]float64, p.NumVars)
	colOf := make([]int, p.NumVars)
	ncols := 0
	for i := 0; i < p.NumVars; i++ {
		lo, hi := p.lower(i), p.upper(i)
		if hi-lo <= eps { // fixed variable
			elim[i] = lo
			colOf[i] = -1
			continue
		}
		shift[i] = lo
		colOf[i] = ncols
		ncols++
	}

	type row struct {
		coefs map[int]float64 // by structural column
		rel   Rel
		rhs   float64
		name  string
	}
	var rows []row
	addRow := func(coefs map[int]float64, rel Rel, rhs float64, name string) error {
		adj := rhs
		out := map[int]float64{}
		for v, cf := range coefs {
			if fx, ok := elim[v]; ok && colOf[v] < 0 {
				adj -= cf * fx
				continue
			}
			adj -= cf * shift[v]
			out[colOf[v]] += cf
		}
		if len(out) == 0 { // constant row: check satisfiability now
			switch rel {
			case LE:
				if adj < -feasTol {
					return fmt.Errorf("lp: constraint %q infeasible after elimination", name)
				}
			case GE:
				if adj > feasTol {
					return fmt.Errorf("lp: constraint %q infeasible after elimination", name)
				}
			case EQ:
				if math.Abs(adj) > feasTol {
					return fmt.Errorf("lp: constraint %q infeasible after elimination", name)
				}
			}
			return nil
		}
		rows = append(rows, row{out, rel, adj, name})
		return nil
	}

	for _, c := range p.Constraints {
		if err := addRow(c.Coefs, c.Rel, c.RHS, c.Name); err != nil {
			// Constant-row infeasibility is a real Infeasible outcome, not
			// a modelling error; signal it via a sentinel handled below.
			return nil, nil, nil, errInfeasibleConst{err}
		}
	}
	for i := 0; i < p.NumVars; i++ {
		if colOf[i] < 0 {
			continue
		}
		if hi := p.upper(i); !math.IsInf(hi, 1) {
			if err := addRow(map[int]float64{i: 1}, LE, hi, fmt.Sprintf("ub(x%d)", i)); err != nil {
				return nil, nil, nil, errInfeasibleConst{err}
			}
		}
	}

	if ncols == 0 {
		return nil, elim, shift, nil
	}

	m := len(rows)
	// Count slacks: one per LE/GE row.
	nSlack := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	n := ncols + nSlack
	t := &tableau{m: m, n: n, colOf: colOf}
	t.a = make([][]float64, m)
	t.basis = make([]int, m)
	t.rowName = make([]string, m)
	t.cost = make([]float64, n)
	for i := 0; i < p.NumVars; i++ {
		if colOf[i] >= 0 {
			t.cost[colOf[i]] = p.cost(i)
		}
	}
	slack := ncols
	for ri, r := range rows {
		t.rowName[ri] = r.name
		rowv := make([]float64, n+1)
		for c, v := range r.coefs {
			rowv[c] = v
		}
		rowv[n] = r.rhs
		switch r.rel {
		case LE:
			rowv[slack] = 1
			t.basis[ri] = slack
			slack++
		case GE:
			rowv[slack] = -1
			t.basis[ri] = -1 // needs artificial
			slack++
		case EQ:
			t.basis[ri] = -1
		}
		// Normalize to non-negative RHS.
		if rowv[n] < 0 {
			for j := range rowv {
				rowv[j] = -rowv[j]
			}
			if r.rel == LE { // slack coefficient flipped; needs artificial
				t.basis[ri] = -1
			} else if r.rel == GE { // surplus became +1: usable as basis
				t.basis[ri] = slack - 1
			}
		}
		t.a[ri] = rowv
	}
	return t, elim, shift, nil
}

type errInfeasibleConst struct{ err error }

func (e errInfeasibleConst) Error() string { return e.err.Error() }

// solveTwoPhase runs phase 1 (if artificials are needed) then phase 2.
func (t *tableau) solveTwoPhase() (Result, error) {
	// Add artificial columns for rows without a basic column.
	needArt := 0
	for _, b := range t.basis {
		if b < 0 {
			needArt++
		}
	}
	if needArt > 0 {
		t.nArt = needArt
		art := t.n
		for ri := range t.a {
			// Widening every row reallocates and copies the whole
			// tableau — on big models that is whole seconds of memmove,
			// so it polls the deadline like the pivot kernel does.
			if err := t.check.Check(); err != nil {
				return Result{}, err
			}
			rowv := t.a[ri]
			rhs := rowv[t.n]
			rowv = append(rowv[:t.n:t.n], make([]float64, needArt+1)...)
			rowv[t.n+needArt] = rhs
			t.a[ri] = rowv
		}
		for ri, b := range t.basis {
			if b < 0 {
				t.a[ri][art] = 1
				t.basis[ri] = art
				art++
			}
		}
		// Phase 1: minimize sum of artificials.
		p1cost := make([]float64, t.n+needArt)
		for j := t.n; j < t.n+needArt; j++ {
			p1cost[j] = 1
		}
		status, err := t.optimize(p1cost, t.n+needArt)
		if err != nil {
			return Result{}, err
		}
		if status == Unbounded {
			return Result{}, errors.New("lp: phase-1 unbounded (internal error)")
		}
		// Feasible iff the phase-1 objective is (near) zero.
		p1obj := 0.0
		for ri, b := range t.basis {
			if b < len(p1cost) {
				p1obj += p1cost[b] * t.a[ri][len(t.a[ri])-1]
			}
		}
		if p1obj > feasTol*float64(1+t.m) {
			return Result{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		if err := t.expelArtificials(); err != nil {
			return Result{}, err
		}
	}

	// Phase 2 over the structural+slack columns only.
	ncols := t.n
	if t.m == 0 {
		// Every row was redundant. Variables sit at their lower bounds
		// (column value 0); any negative cost direction is unbounded
		// because finite upper bounds were encoded as rows.
		for j := 0; j < ncols; j++ {
			if t.cost[j] < -costTol {
				return Result{Status: Unbounded}, nil
			}
		}
		return Result{Status: Optimal, X: make([]float64, t.n)}, nil
	}
	status, err := t.optimize(t.cost, ncols)
	if err != nil {
		return Result{}, err
	}
	if status == Unbounded {
		return Result{Status: Unbounded}, nil
	}
	x := make([]float64, t.n)
	rhs := len(t.a[0]) - 1
	for ri, b := range t.basis {
		if b < t.n {
			x[b] = t.a[ri][rhs]
		}
	}
	return Result{Status: Optimal, X: x}, nil
}

// expelArtificials pivots basic artificial variables (at zero value) out
// of the basis where a structural pivot exists, then deletes rows whose
// artificial cannot be expelled: phase 1 drove their RHS to zero, so they
// are redundant and would otherwise let the artificial drift during
// phase 2.
func (t *tableau) expelArtificials() error {
	for ri, b := range t.basis {
		if b < t.n {
			continue
		}
		for j := 0; j < t.n; j++ {
			if math.Abs(t.a[ri][j]) > eps {
				if err := t.pivot(ri, j); err != nil {
					return err
				}
				break
			}
		}
	}
	keptA := t.a[:0]
	keptB := t.basis[:0]
	keptN := t.rowName[:0]
	for ri, b := range t.basis {
		if b >= t.n {
			continue // redundant row
		}
		keptA = append(keptA, t.a[ri])
		keptB = append(keptB, b)
		keptN = append(keptN, t.rowName[ri])
	}
	t.a, t.basis, t.rowName = keptA, keptB, keptN
	t.m = len(t.a)
	return nil
}

// optimize runs simplex minimizing cost over columns [0,ncols); columns
// at or beyond ncols (expelled artificials) never re-enter the basis.
func (t *tableau) optimize(cost []float64, ncols int) (Status, error) {
	rhs := len(t.a[0]) - 1
	blandAfter := 50 * (t.m + ncols)
	price := make([]float64, ncols)
	basic := make([]bool, ncols)
	for {
		if t.iters > maxPivot {
			return 0, ErrIterationLimit
		}
		if t.iters%ctxCheckEvery == 0 {
			if err := t.check.Err(); err != nil {
				return 0, err
			}
		}
		// Reduced costs: r_j = c_j - c_B . B^-1 A_j. In tableau form the
		// price row is sum over rows of c_basis * a[row][:], accumulated
		// in one pass over the rows with non-zero basic cost. The pass is
		// O(m*ncols) — on wide models a single pivot iteration costs
		// hundreds of milliseconds, so cancellation is polled per priced
		// row (amortized by the checkpoint stride), not per iteration.
		for j := range price {
			price[j] = 0
			basic[j] = false
		}
		for ri, b := range t.basis {
			if b < ncols {
				basic[b] = true
			}
			cb := 0.0
			if b < len(cost) {
				cb = cost[b]
			}
			if cb == 0 {
				continue
			}
			if err := t.check.Check(); err != nil {
				return 0, err
			}
			row := t.a[ri]
			for j := 0; j < ncols; j++ {
				price[j] += cb * row[j]
			}
		}
		var enter = -1
		var bestR float64
		useBland := t.iters > blandAfter
		for j := 0; j < ncols; j++ {
			if basic[j] {
				continue
			}
			r := cost[j] - price[j]
			if r < -costTol {
				if useBland {
					enter = j
					break
				}
				if enter < 0 || r < bestR {
					enter, bestR = j, r
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test.
		leave := -1
		var bestRatio float64
		for ri := 0; ri < t.m; ri++ {
			av := t.a[ri][enter]
			if av > eps {
				ratio := t.a[ri][rhs] / av
				if leave < 0 || ratio < bestRatio-eps ||
					(math.Abs(ratio-bestRatio) <= eps && t.basis[ri] < t.basis[leave]) {
					leave, bestRatio = ri, ratio
				}
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		if err := t.pivot(leave, enter); err != nil {
			return 0, err
		}
	}
}

// pivot performs a Gauss-Jordan pivot on (row, col) and updates the
// basis. Cancellation is polled per eliminated row (amortized by the
// checkpoint stride): the elimination is O(m*rowlen), the widest
// uninterruptible span the solver would otherwise have. An abort
// leaves the tableau mid-update — every caller discards it and
// returns the error.
func (t *tableau) pivot(row, col int) error {
	t.iters++
	pr := t.a[row]
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for ri := range t.a {
		if ri == row {
			continue
		}
		f := t.a[ri][col]
		if f == 0 {
			continue
		}
		if err := t.check.Check(); err != nil {
			return err
		}
		rowv := t.a[ri]
		for j := range rowv {
			rowv[j] -= f * pr[j]
		}
		rowv[col] = 0 // exact
	}
	t.basis[row] = col
	return nil
}

// IsInfeasibleConst reports whether err marks a constant-row
// infeasibility detected during presolve; callers treat it as a normal
// Infeasible outcome.
func IsInfeasibleConst(err error) bool {
	_, ok := err.(errInfeasibleConst)
	return ok
}
