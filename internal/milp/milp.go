// Package milp solves mixed 0-1/integer linear programs with best-first
// branch & bound over the LP relaxations of internal/lp. It stands in
// for the commercial ILP solver (Gurobi) used in the paper's experiments;
// like the paper's setup, solves run under a time limit and return the
// best-effort incumbent when the limit is reached (Sec. IV: "the runtime
// ... was limited ... to return the best-effort results").
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/solve"
)

// Branch & bound totals, resolved once at package load. The node loop
// publishes only to the search's solve.Progress; these advance once
// per finished search, from the same counts the search returns.
var (
	bbNodesTotal      = obs.Default().Counter("pdw_bb_nodes_total")
	bbPrunedTotal     = obs.Default().Counter("pdw_bb_pruned_total")
	bbIncumbentsTotal = obs.Default().Counter("pdw_bb_incumbents_total")
	lpPivotsTotal     = obs.Default().Counter("pdw_lp_simplex_pivots_total")
)

// bbBatchEvery is the node interval between bb-batch span events; a
// 200k-node search contributes ~780 events to the trace.
const bbBatchEvery = 256

// slowRelaxationPivots is the pivot count from which a node relaxation
// is worth a retroactive lp.simplex span in a traced search.
const slowRelaxationPivots = 512

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
	// Pruned counts subproblems discarded by the incumbent bound
	// without an LP solve.
	Pruned int
	// SimplexIters sums simplex pivots over all node relaxations.
	SimplexIters int
	// Incumbents is the incumbent trajectory: one entry per improving
	// feasible solution, in discovery order.
	Incumbents []solve.Incumbent
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

const intTol = 1e-6

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
// was found yet.
func SolveContext(ctx context.Context, p *Problem, opts Options) (res Result, err error) {
	start := time.Now()
	if len(p.Integer) != p.LP.NumVars {
		return Result{}, fmt.Errorf("milp: Integer has %d marks for %d variables", len(p.Integer), p.LP.NumVars)
	}
	ctx, span := obs.Start(ctx, "milp.bnb",
		obs.A("vars", p.LP.NumVars), obs.A("int_vars", p.intVars()),
		obs.A("constraints", len(p.LP.Constraints)))

	// The search's own counts. The loops below publish them live only
	// to prog; the exit block adds them to the process totals once, so
	// error returns still count the work they did.
	var trajectory []solve.Incumbent
	nodes, pruned, simplexIters := 0, 0, 0
	defer func() {
		status := "error"
		if err == nil {
			status = res.Status.String()
		}
		bbNodesTotal.Add(int64(nodes))
		bbPrunedTotal.Add(int64(pruned))
		bbIncumbentsTotal.Add(int64(len(trajectory)))
		lpPivotsTotal.Add(int64(simplexIters))
		obs.Default().Counter("pdw_milp_solves_total", "status", status).Inc()
		obs.Default().Histogram("pdw_milp_wall_seconds", nil).Observe(time.Since(start).Seconds())
		if span != nil {
			span.SetAttr("status", status)
			span.SetAttr("nodes", nodes)
			span.SetAttr("pruned", pruned)
			span.SetAttr("simplex_pivots", simplexIters)
			span.End()
		}
	}()
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

	// prog is the optional live progress view of the root solve; each
	// publication below is one atomic op on a path that already paid
	// for an LP solve (per node) or a trajectory append (per
	// incumbent), so the instrumented cost is noise and the detached
	// cost one nil check.
	prog := solve.ProgressFromContext(ctx)

	var haveInc bool
	var incX []float64
	incObj := math.Inf(1)
	record := func(obj float64, atNode int) {
		trajectory = append(trajectory, solve.Incumbent{
			Obj: obj, Node: atNode, Elapsed: time.Since(start),
		})
		prog.Incumbent(obj)
		if span != nil {
			span.Event("incumbent", obs.A("obj", obj), obs.A("node", atNode))
		}
	}
	if opts.Incumbent != nil {
		if err := p.CheckFeasible(opts.Incumbent); err != nil {
			return Result{}, fmt.Errorf("milp: provided incumbent is %w: %w", solve.ErrInfeasible, err)
		}
		incX = append([]float64(nil), opts.Incumbent...)
		incObj = p.objOf(incX)
		haveInc = true
		record(incObj, 0)
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
			if lo[i] > hi[i]+1e-12 {
				return lp.Result{Status: lp.Infeasible}, nil
			}
		}
		sub.Lower, sub.Upper = lo, hi
		if span == nil {
			return lp.SolveContext(dctx, &sub)
		}
		t0 := time.Now()
		res, err := lp.SolveContext(dctx, &sub)
		if res.Iterations >= slowRelaxationPivots {
			status := "error"
			if err == nil {
				status = res.Status.String()
			}
			obs.RecordSpan(ctx, "lp.simplex", t0, time.Since(t0),
				obs.A("pivots", res.Iterations), obs.A("status", status))
		}
		return res, err
	}

	root := &node{bound: math.Inf(-1), fixLo: map[int]float64{}, fixHi: map[int]float64{}, branch: -1}
	queue := &nodeQueue{root}
	heap.Init(queue)
	nextID := 1
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
		// Best-first pop order makes n.bound the best lower bound over
		// all open subproblems: exactly the live "bound" of the solve.
		prog.SetBound(n.bound)
		if haveInc && n.bound >= incObj-1e-9 {
			pruned++
			prog.AddPruned(1)
			continue // pruned by bound
		}
		res, err := solveNode(n)
		simplexIters += res.Iterations
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
		prog.AddNodes(1)
		if span != nil && nodes%bbBatchEvery == 0 {
			span.Event("bb-batch",
				obs.A("nodes", nodes), obs.A("queue", queue.Len()),
				obs.A("pruned", pruned), obs.A("incumbent", incObj))
		}
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
		if haveInc && res.Obj >= incObj-1e-9 {
			pruned++
			prog.AddPruned(1)
			continue
		}
		frac := p.mostFractional(res.X)
		if frac < 0 {
			// Integral: new incumbent, once the rounded point checks
			// out. A point that does not leaves its subproblem
			// unsettled, so the search can no longer claim optimality.
			if !haveInc || res.Obj < incObj-1e-12 {
				x := roundIntegers(p, res.X)
				if p.CheckFeasible(x) != nil {
					unsettled = math.Min(unsettled, res.Obj)
					continue
				}
				incX, incObj, haveInc = x, p.objOf(x), true
				record(incObj, nodes)
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

	out := Result{
		Nodes: nodes, Pruned: pruned, SimplexIters: simplexIters,
		Incumbents: trajectory, Wall: time.Since(start),
	}
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
	// Publish the final bound so a proven optimum shows gap 0 on
	// /debug/solves for the remainder of the root solve.
	prog.SetBound(bestBound)
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

// Stat is the solve.Stats record of this search over p.
func (r Result) Stat(label string, p *Problem) solve.MILPStat {
	return solve.MILPStat{
		Label: label,
		Vars:  p.LP.NumVars, IntVars: p.intVars(),
		Constraints: len(p.LP.Constraints),
		Nodes:       r.Nodes, Pruned: r.Pruned, SimplexIters: r.SimplexIters,
		Status: r.Status.String(), Optimal: r.Status == Optimal,
		Wall: r.Wall, Incumbents: r.Incumbents,
	}
}

func (p *Problem) intVars() int {
	n := 0
	for _, isInt := range p.Integer {
		if isInt {
			n++
		}
	}
	return n
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
	best, bestDist := -1, intTol
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

// CheckFeasible verifies x against bounds, constraints, and integrality.
func (p *Problem) CheckFeasible(x []float64) error {
	if len(x) != p.LP.NumVars {
		return fmt.Errorf("milp: point has %d entries for %d variables", len(x), p.LP.NumVars)
	}
	const tol = 1e-6
	lo := padded(p.LP.Lower, p.LP.NumVars, 0)
	hi := padded(p.LP.Upper, p.LP.NumVars, math.Inf(1))
	for i, v := range x {
		if v < lo[i]-tol || v > hi[i]+tol {
			return fmt.Errorf("milp: x[%d]=%g violates bounds [%g,%g]", i, v, lo[i], hi[i])
		}
		if p.Integer[i] && math.Abs(v-math.Round(v)) > tol {
			return fmt.Errorf("milp: x[%d]=%g is not integral", i, v)
		}
	}
	for _, c := range p.LP.Constraints {
		s := 0.0
		for i, cf := range c.Coefs {
			s += cf * x[i]
		}
		ok := true
		switch c.Rel {
		case lp.LE:
			ok = s <= c.RHS+1e-5
		case lp.GE:
			ok = s >= c.RHS-1e-5
		case lp.EQ:
			ok = math.Abs(s-c.RHS) <= 1e-5
		}
		if !ok {
			return fmt.Errorf("milp: constraint %q violated: lhs=%g rel=%v rhs=%g", c.Name, s, c.Rel, c.RHS)
		}
	}
	return nil
}
