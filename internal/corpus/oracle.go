package corpus

import (
	"context"
	"fmt"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/sim"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/washpath"
)

// The differential oracle cross-checks the repo's solvers against each
// other on one instance. Every invariant it asserts is a theorem of
// the implementation, not an empirical observation:
//
//   - both optimizers' outputs pass schedule.Validate and
//     contam.Verify, and replay contamination-free through the
//     internal/sim executor (three independent checkers);
//   - per wash, the exact wash-path search never returns a longer
//     path than the BFS heuristic (the heuristic is its first
//     incumbent and only shorter paths replace it, so exact ≤
//     heuristic by construction);
//   - a budget-canceled PDW solve still returns a feasible, clean
//     schedule (graceful degradation to incumbents);
//   - metamorphic relabelings (fluid types end-to-end, operation IDs
//     at the wash layer) leave n_wash and l_wash_mm unchanged.
//
// Deliberately NOT asserted: PDW beating DAWO on n_wash. That is the
// paper's empirical claim, not an invariant — adversarial instances
// can favor either heuristic.

// Invariant names, as reported in Violation.Invariant.
const (
	InvPDWClean      = "pdw-clean"      // PDW output valid + contamination-free
	InvDAWOClean     = "dawo-clean"     // DAWO output valid + contamination-free
	InvExactLeHeur   = "exact-le-heur"  // exact wash path ≤ heuristic wash path
	InvCancelFeas    = "cancel-feas"    // budget-canceled solve still feasible
	InvRelabelNWash  = "relabel-nwash"  // fluid relabeling preserves solution quality
	InvPermuteNWash  = "permute-nwash"  // op-ID permutation preserves solution quality
	InvOracleFailure = "oracle-failure" // a solver errored outright
)

// Violation is one broken invariant on one instance.
type Violation struct {
	Instance  string
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Instance, v.Invariant, v.Detail)
}

// Verdict is the oracle's result for one instance.
type Verdict struct {
	Instance string
	// PDW and DAWO are the solvers' metrics on the instance.
	PDW, DAWO schedule.Metrics
	// PathChecks counts exact-vs-heuristic wash path comparisons run.
	PathChecks int
	// Violations lists every broken invariant (empty: instance passed).
	Violations []Violation
}

// OK reports whether every invariant held.
func (v *Verdict) OK() bool { return len(v.Violations) == 0 }

// OracleOptions tunes CheckInstance.
type OracleOptions struct {
	// Budget bounds each full solve (default 60 s).
	Budget time.Duration
	// PathTimeLimit bounds each exact wash-path search in the
	// exact-vs-heuristic differential (default 2 s).
	PathTimeLimit time.Duration
	// CancelBudget is the deliberately-too-small budget of the
	// graceful-degradation check (default 5 ms).
	CancelBudget time.Duration
	// MaxPathChecks caps the exact-vs-heuristic comparisons per
	// instance (0: unlimited). Corpus-scale sweeps cap at a few per
	// instance and still accumulate hundreds of differentials.
	MaxPathChecks int
	// Seed drives the metamorphic transformations (default 1).
	Seed uint64
	// SkipMetamorphic drops the relabel/permute re-solves (they cost
	// two extra synthesis runs and four extra solves per instance).
	SkipMetamorphic bool
}

func (o OracleOptions) withDefaults() OracleOptions {
	if o.Budget == 0 {
		o.Budget = 60 * time.Second
	}
	if o.PathTimeLimit == 0 {
		o.PathTimeLimit = 2 * time.Second
	}
	if o.CancelBudget == 0 {
		o.CancelBudget = 5 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// oracleSolve are the PDW options of the oracle's reference solves:
// fully deterministic heuristics (BFS paths, greedy windows) so that
// two solves of relabeled copies of the same instance cannot diverge
// through time-limit noise.
func oracleSolve(budget time.Duration) pdw.Options {
	return pdw.Options{
		HeuristicPaths:   true,
		HeuristicWindows: true,
		Budget:           solve.Budget{Total: budget},
	}
}

// CheckInstance runs the full differential oracle on one instance.
// The returned error is reserved for infrastructure failures
// (synthesis of the untransformed instance failing, context
// cancellation); solver misbehavior is reported as Violations.
func CheckInstance(ctx context.Context, b *benchmarks.Benchmark, opts OracleOptions) (*Verdict, error) {
	opts = opts.withDefaults()
	v := &Verdict{Instance: b.Name}

	syn, err := b.SynthesizeContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("corpus: oracle %s: synthesize: %w", b.Name, err)
	}
	base := syn.Schedule

	// PDW reference solve.
	pres, err := pdw.OptimizeContext(ctx, base, oracleSolve(opts.Budget))
	if err != nil {
		v.fail(InvOracleFailure, "pdw: %v", err)
		return v, ctx.Err()
	}
	v.PDW = pres.Schedule.ComputeMetrics(base)
	v.checkClean(InvPDWClean, pres.Schedule)

	// DAWO reference solve.
	dres, err := dawo.OptimizeContext(ctx, base, dawo.Options{Budget: solve.Budget{Total: opts.Budget}})
	if err != nil {
		v.fail(InvOracleFailure, "dawo: %v", err)
		return v, ctx.Err()
	}
	v.DAWO = dres.Schedule.ComputeMetrics(base)
	v.checkClean(InvDAWOClean, dres.Schedule)

	// Exact-vs-heuristic wash path differential, one comparison per
	// decided wash. The heuristic needs chain-ordered targets; target
	// sets it cannot chain are skipped (BuildCoverContext territory).
	for _, w := range pres.Washes {
		if opts.MaxPathChecks > 0 && v.PathChecks >= opts.MaxPathChecks {
			break
		}
		targets, err := washpath.ChainOrder(w.Targets)
		if err != nil {
			continue
		}
		heur, err := washpath.BuildContext(ctx, base.Chip, washpath.Request{Targets: targets},
			washpath.Options{})
		if err != nil {
			continue
		}
		exact, err := washpath.BuildContext(ctx, base.Chip, washpath.Request{Targets: targets},
			washpath.Options{Exact: true, TimeLimit: opts.PathTimeLimit})
		if err != nil {
			v.fail(InvExactLeHeur, "wash %s: exact build failed where heuristic succeeded: %v", w.ID, err)
			continue
		}
		v.PathChecks++
		if exact.Path.Len() > heur.Path.Len() {
			v.fail(InvExactLeHeur, "wash %s: exact path %d cells > heuristic %d",
				w.ID, exact.Path.Len(), heur.Path.Len())
		}
	}

	// Graceful degradation: a solve whose budget expires immediately
	// must still deliver a feasible, contamination-free incumbent.
	cres, err := pdw.OptimizeContext(ctx, base, oracleSolve(opts.CancelBudget))
	if err != nil {
		v.fail(InvCancelFeas, "budget-canceled solve errored: %v", err)
	} else {
		v.checkClean(InvCancelFeas, cres.Schedule)
	}

	if opts.SkipMetamorphic {
		return v, ctx.Err()
	}

	// Fluid relabeling is invariant end-to-end: synthesis and both
	// optimizers only compare fluid types for equality.
	rb, err := RelabelBenchmark(b, opts.Seed)
	if err != nil {
		v.fail(InvRelabelNWash, "relabel: %v", err)
		return v, ctx.Err()
	}
	rsyn, err := rb.SynthesizeContext(ctx)
	if err != nil {
		v.fail(InvRelabelNWash, "relabeled synthesize: %v", err)
		return v, ctx.Err()
	}
	v.checkSame(InvRelabelNWash, "pdw", ctx, rsyn.Schedule, v.PDW, opts, pdwSolver)
	v.checkSame(InvRelabelNWash, "dawo", ctx, rsyn.Schedule, v.DAWO, opts, dawoSolver)

	// Op-ID permutation is invariant at the wash layer (see
	// PermuteOpIDs for why not end-to-end).
	pb, err := PermuteOpIDs(base, opts.Seed)
	if err != nil {
		v.fail(InvPermuteNWash, "permute: %v", err)
		return v, ctx.Err()
	}
	v.checkSame(InvPermuteNWash, "pdw", ctx, pb, v.PDW, opts, pdwSolver)
	v.checkSame(InvPermuteNWash, "dawo", ctx, pb, v.DAWO, opts, dawoSolver)

	return v, ctx.Err()
}

// CheckCorpus runs the oracle over every instance and returns the
// verdicts plus all violations flattened.
func CheckCorpus(ctx context.Context, benches []*benchmarks.Benchmark, opts OracleOptions) ([]*Verdict, []Violation, error) {
	verdicts := make([]*Verdict, 0, len(benches))
	var all []Violation
	for _, b := range benches {
		v, err := CheckInstance(ctx, b, opts)
		if err != nil {
			return verdicts, all, err
		}
		verdicts = append(verdicts, v)
		all = append(all, v.Violations...)
	}
	return verdicts, all, nil
}

func (v *Verdict) fail(inv, format string, args ...any) {
	v.Violations = append(v.Violations, Violation{
		Instance:  v.Instance,
		Invariant: inv,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// checkClean asserts the three independent feasibility checkers on an
// optimized schedule: structural validation, the contamination
// verifier, and a full simulated replay.
func (v *Verdict) checkClean(inv string, s *schedule.Schedule) {
	if err := s.Validate(); err != nil {
		v.fail(inv, "schedule invalid: %v", err)
		return
	}
	if err := contam.Verify(s); err != nil {
		v.fail(inv, "contamination verifier: %v", err)
		return
	}
	if vs := sim.Run(s).ByClass(sim.Contamination); len(vs) > 0 {
		v.fail(inv, "sim replay: %v", vs[0])
	}
}

// solverFunc abstracts PDW/DAWO for the metamorphic re-solves.
type solverFunc func(ctx context.Context, base *schedule.Schedule, budget time.Duration) (*schedule.Schedule, error)

func pdwSolver(ctx context.Context, base *schedule.Schedule, budget time.Duration) (*schedule.Schedule, error) {
	res, err := pdw.OptimizeContext(ctx, base, oracleSolve(budget))
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

func dawoSolver(ctx context.Context, base *schedule.Schedule, budget time.Duration) (*schedule.Schedule, error) {
	res, err := dawo.OptimizeContext(ctx, base, dawo.Options{Budget: solve.Budget{Total: budget}})
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// checkSame re-solves a transformed base schedule and asserts the
// solution-quality metrics match the reference solve.
func (v *Verdict) checkSame(inv, solver string, ctx context.Context, base *schedule.Schedule,
	want schedule.Metrics, opts OracleOptions, solve solverFunc) {

	s, err := solve(ctx, base, opts.Budget)
	if err != nil {
		v.fail(inv, "%s on transformed instance: %v", solver, err)
		return
	}
	got := s.ComputeMetrics(base)
	if got.NWash != want.NWash || got.LWashMM != want.LWashMM {
		v.fail(inv, "%s: n_wash %d != %d or l_wash %g != %g",
			solver, got.NWash, want.NWash, got.LWashMM, want.LWashMM)
	}
}
