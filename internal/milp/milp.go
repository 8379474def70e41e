// Package milp solves mixed 0-1/integer linear programs with best-first
// branch & bound over the LP relaxations of internal/lp. It solves the
// paper's ILPs, which the paper solves on Gurobi under a time limit
// (Sec. IV), as the test oracle of the exact wash-path and time-window
// searches; no non-test code imports it. Like the paper's setup, a
// solve runs under a time limit and returns its best incumbent when
// the limit is reached.
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/solve"
)

// Problem is a linear program plus integrality marks.
type Problem struct {
	LP lp.Problem
	// Integer[i] requires variable i to take an integral value. Binary
	// variables are integer variables with bounds [0,1].
	Integer []bool
}

// NewProblem allocates a MILP with n continuous variables.
func NewProblem(n int) *Problem {
	return &Problem{LP: *lp.NewProblem(n), Integer: make([]bool, n)}
}

// AddBinary appends a new binary variable and returns its index.
func (p *Problem) AddBinary() int {
	i := p.LP.NumVars
	p.LP.NumVars++
	p.LP.Objective = append(p.LP.Objective, 0)
	p.Integer = append(p.Integer, true)
	p.LP.SetBounds(i, 0, 1)
	return i
}

// AddContinuous appends a new continuous variable with bounds [lo,hi]
// and returns its index.
func (p *Problem) AddContinuous(lo, hi float64) int {
	i := p.LP.NumVars
	p.LP.NumVars++
	p.LP.Objective = append(p.LP.Objective, 0)
	p.Integer = append(p.Integer, false)
	p.LP.SetBounds(i, lo, hi)
	return i
}

// SetObjective sets the cost coefficient of variable i.
func (p *Problem) SetObjective(i int, c float64) { p.LP.Objective[i] = c }

// Status is the outcome of a MILP solve.
type Status int

// MILP outcomes. Feasible means the search hit a limit with an incumbent
// in hand; Limit means it hit a limit without one.
const (
	Optimal Status = iota
	Feasible
	Infeasible
	Unbounded
	Limit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible(limit)"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// DefaultTimeLimit is the wall-clock cap applied when Options.TimeLimit
// is zero. A zero TimeLimit never means "unbounded": branch & bound on
// this solver is exponential in the worst case, so an explicit default
// keeps zero-value solves from hanging.
const DefaultTimeLimit = 30 * time.Second

// Options tunes the branch & bound search.
type Options struct {
	// TimeLimit caps wall-clock search time. The zero value silently
	// selects DefaultTimeLimit (30 s); it does NOT mean unbounded. When
	// the caller's context carries an earlier deadline, that deadline
	// wins regardless of TimeLimit.
	TimeLimit time.Duration
	// MaxNodes caps explored nodes; 0 means 200000.
	MaxNodes int
	// Incumbent optionally provides a known feasible point used for
	// pruning from the start (e.g. a heuristic schedule). It is
	// verified; an infeasible incumbent is an error.
	Incumbent []float64
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	// Bound is the best proven lower bound on the optimum.
	Bound float64
	// Nodes is the number of explored branch & bound nodes.
	Nodes int
	// Wall is the solve's wall-clock time.
	Wall time.Duration
}

// Gap returns the relative optimality gap of the incumbent, or +inf if
// there is none.
func (r Result) Gap() float64 {
	if r.Status != Optimal && r.Status != Feasible {
		return math.Inf(1)
	}
	if r.Status == Optimal {
		return 0
	}
	den := math.Max(1, math.Abs(r.Obj))
	return (r.Obj - r.Bound) / den
}

type node struct {
	bound  float64
	fixLo  map[int]float64
	fixHi  map[int]float64
	id     int
	depth  int
	fracX  []float64 // LP relaxation point at this node's parent solve
	branch int       // variable branched at this node (-1 for root)
}

type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	if q[i].depth != q[j].depth {
		return q[i].depth > q[j].depth // plunge deeper first on ties
	}
	return q[i].id < q[j].id
}
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)   { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Solve runs branch & bound without external cancellation; see
// SolveContext for the context-aware form.
func Solve(p *Problem, opts Options) (Result, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext runs branch & bound under ctx. The effective deadline is
// the earlier of ctx's deadline and Options.TimeLimit (zero TimeLimit:
// DefaultTimeLimit). Cancellation and deadline expiry are never errors:
// the search stops promptly — mid-relaxation included — and returns the
// best feasible incumbent (Status Feasible), or Status Limit when none
// was found yet. A node relaxation that fails lp's check
// (lp.ErrOptimumCheck) fails the solve: its bound can neither prune nor
// branch soundly.
func SolveContext(ctx context.Context, p *Problem, opts Options) (Result, error) {
	start := time.Now()
	if len(p.Integer) != p.LP.NumVars {
		return Result{}, fmt.Errorf("milp: Integer has %d marks for %d variables", len(p.Integer), p.LP.NumVars)
	}
	limit := opts.TimeLimit
	if limit <= 0 {
		limit = DefaultTimeLimit
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	deadline := start.Add(limit)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	// The effective deadline is carried as a context so node relaxations
	// stop mid-pivot-loop too, not just between nodes.
	dctx, stop := context.WithDeadline(ctx, deadline)
	defer stop()
	canceled := func() bool {
		select {
		case <-dctx.Done():
			return true
		default:
			return false
		}
	}

	var haveInc bool
	var incX []float64
	incObj := math.Inf(1)
	if opts.Incumbent != nil {
		if err := p.CheckFeasible(opts.Incumbent); err != nil {
			return Result{}, fmt.Errorf("milp: provided incumbent is %w: %w", solve.ErrInfeasible, err)
		}
		incX = append([]float64(nil), opts.Incumbent...)
		incObj = p.objOf(incX)
		haveInc = true
	}

	solveNode := func(n *node) (lp.Result, error) {
		sub := p.LP // shallow copy; bounds slices replaced below
		lo := append([]float64(nil), padded(p.LP.Lower, p.LP.NumVars, 0)...)
		hi := append([]float64(nil), padded(p.LP.Upper, p.LP.NumVars, math.Inf(1))...)
		for i, v := range n.fixLo {
			if v > lo[i] {
				lo[i] = v
			}
		}
		for i, v := range n.fixHi {
			if v < hi[i] {
				hi[i] = v
			}
		}
		for i := range lo {
			if lo[i] > hi[i]+lp.CrossTol {
				return lp.Result{Status: lp.Infeasible}, nil
			}
		}
		sub.Lower, sub.Upper = lo, hi
		return lp.SolveContext(dctx, &sub)
	}

	root := &node{bound: math.Inf(-1), fixLo: map[int]float64{}, fixHi: map[int]float64{}, branch: -1}
	queue := &nodeQueue{root}
	heap.Init(queue)
	nextID, nodes := 1, 0
	hitLimit, unbounded := false, false
	// unsettled is the least relaxation bound over integral points that
	// failed CheckFeasible after rounding (+inf: none).
	unsettled := math.Inf(1)

search:
	for queue.Len() > 0 {
		if nodes >= maxNodes || canceled() || time.Now().After(deadline) {
			hitLimit = true
			break
		}
		n := heap.Pop(queue).(*node)
		if haveInc && n.bound >= incObj-lp.PruneTol {
			continue // pruned by bound
		}
		res, err := solveNode(n)
		if err != nil {
			if errors.Is(err, lp.ErrIterationLimit) ||
				errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// The node is still open: its bound stays in the
				// reported bound below.
				heap.Push(queue, n)
				hitLimit = true
				break
			}
			return Result{}, err
		}
		nodes++
		switch res.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			if n.branch < 0 && !haveInc {
				unbounded = true
				break search
			}
			// A branched subproblem relaxation can be unbounded only if
			// the root was; treat as no useful bound and keep searching
			// by branching on the first unfixed integer.
			continue
		}
		if haveInc && res.Obj >= incObj-lp.PruneTol {
			continue
		}
		frac := p.mostFractional(res.X)
		if frac < 0 {
			// Integral: new incumbent, once the rounded point checks
			// out. A point that does not leaves its subproblem
			// unsettled, so the search can no longer claim optimality.
			if !haveInc || res.Obj < incObj-lp.ImproveTol {
				x := roundIntegers(p, res.X)
				if p.CheckFeasible(x) != nil {
					unsettled = math.Min(unsettled, res.Obj)
					continue
				}
				incX, incObj, haveInc = x, p.objOf(x), true
			}
			continue
		}
		v := res.X[frac]
		down := &node{
			bound: res.Obj, id: nextID, depth: n.depth + 1, branch: frac,
			fixLo: n.fixLo, fixHi: withOverride(n.fixHi, frac, math.Floor(v)),
		}
		nextID++
		up := &node{
			bound: res.Obj, id: nextID, depth: n.depth + 1, branch: frac,
			fixLo: withOverride(n.fixLo, frac, math.Ceil(v)), fixHi: n.fixHi,
		}
		nextID++
		heap.Push(queue, down)
		heap.Push(queue, up)
	}

	out := Result{Nodes: nodes, Wall: time.Since(start)}
	if unbounded {
		out.Status = Unbounded
		return out, nil
	}
	// Best remaining bound: min over open and unsettled nodes, or
	// incumbent if closed.
	bestBound := math.Min(incObj, unsettled)
	for _, n := range *queue {
		if n.bound < bestBound {
			bestBound = n.bound
		}
	}
	if !hitLimit && queue.Len() == 0 && math.IsInf(unsettled, 1) {
		if !haveInc {
			out.Status = Infeasible
			return out, nil
		}
		out.Status, out.X, out.Obj, out.Bound = Optimal, incX, incObj, incObj
		return out, nil
	}
	if haveInc {
		out.Status, out.X, out.Obj, out.Bound = Feasible, incX, incObj, bestBound
		return out, nil
	}
	out.Status, out.Bound = Limit, bestBound
	return out, nil
}

func padded(s []float64, n int, def float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < len(s) {
			out[i] = s[i]
		} else {
			out[i] = def
		}
	}
	return out
}

func withOverride(m map[int]float64, k int, v float64) map[int]float64 {
	out := make(map[int]float64, len(m)+1)
	for kk, vv := range m {
		out[kk] = vv
	}
	out[k] = v
	return out
}

// mostFractional returns the integer variable whose relaxation value is
// farthest from integral, or -1 if all are integral within tolerance.
func (p *Problem) mostFractional(x []float64) int {
	best, bestDist := -1, lp.IntTol
	for i, isInt := range p.Integer {
		if !isInt {
			continue
		}
		f := x[i] - math.Floor(x[i])
		d := math.Min(f, 1-f)
		if d > bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func roundIntegers(p *Problem, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for i, isInt := range p.Integer {
		if isInt {
			out[i] = math.Round(out[i])
		}
	}
	return out
}

func (p *Problem) objOf(x []float64) float64 {
	s := 0.0
	for i := 0; i < p.LP.NumVars && i < len(p.LP.Objective); i++ {
		s += p.LP.Objective[i] * x[i]
	}
	return s
}

// CheckFeasible verifies x against the bounds and rows by
// lp.Problem.CheckFeasible and the integer marks within lp.BoundTol.
func (p *Problem) CheckFeasible(x []float64) error {
	if err := p.LP.CheckFeasible(x); err != nil {
		return err
	}
	for i, v := range x {
		if p.Integer[i] && math.Abs(v-math.Round(v)) > lp.BoundTol {
			return fmt.Errorf("milp: x[%d]=%g is not integral", i, v)
		}
	}
	return nil
}
