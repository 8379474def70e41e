// Package pdw implements PathDriver-Wash, the paper's contribution: a
// path-driven wash optimization method for continuous-flow lab-on-a-chip
// systems. Given a chip architecture and a wash-free assay scheduling
// (both produced by internal/synth, standing in for the PathDriver+
// tool), it computes an optimized execution procedure with efficient
// wash operations, minimizing Eq. 26's weighted combination of the wash
// count N_wash, the total wash path length L_wash, and the assay
// completion time T_assay.
//
// The three key techniques of the paper map to pipeline stages:
//
//  1. Wash-necessity analysis (Sec. II-A, Eqs. 9-11): contamination is
//     tracked per grid cell and Type 1/2/3 residues are never washed
//     (internal/contam with the default policy). Wash demands are
//     grouped and globally merged so one path serves nearby regions.
//  2. Integration with excess-fluid removal (Sec. II-B, Eq. 21):
//     removal tasks p_{j,i,2} whose excess cells lie near a wash's
//     targets and whose windows are compatible are absorbed into the
//     wash (ψ=1), eliminating their separate channel occupation.
//  3. Optimized wash paths and time windows (Sec. II-C, Eqs. 12-20):
//     each wash path is the optimum of the paper's path ILP, found by
//     branch and bound over the paths it admits (internal/washpath).
//     The final time windows solve the paper's window MILP (task start
//     times, one disjunction per free wash conflict) exactly, by depth-
//     first branch and bound over the orders of the conflicting pairs
//     with a longest-path bound, starting from the greedy incumbent and
//     run best-effort under a time limit like the paper's Gurobi setup.
//     Both MILPs, solved by internal/milp, are the searches' test
//     oracles.
package pdw

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/replan"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/washpath"
)

// Options tunes PDW. The zero value enables every technique with the
// paper's parameters; the Disable* switches exist for the ablation
// benches documented in DESIGN.md.
type Options struct {
	// Alpha, Beta, Gamma weight Eq. 26 (defaults 0.3, 0.3, 0.4).
	Alpha, Beta, Gamma float64

	// Budget bounds the run: Budget.Total sets a wall-clock deadline
	// for the whole pipeline (enforced through the context, degrading
	// every later phase to its incumbent on expiry), Budget.PerPath
	// caps each wash-path search (default 3 s) and Budget.Window the
	// time-window search (default 10 s).
	Budget solve.Budget

	// MergeRadius is the Manhattan distance under which wash groups are
	// merged into one path (default 4).
	MergeRadius int
	// MaxRounds caps wash-insertion fixpoint rounds (default 60).
	MaxRounds int

	// DisableNecessity replaces the Type-1/2/3 analysis with the
	// conservative judgement (every foreign residue is washed).
	DisableNecessity bool
	// DisableMerge keeps every demand group as its own wash.
	DisableMerge bool
	// DisableIntegration turns off ψ-integration of excess removals.
	DisableIntegration bool
	// HeuristicPaths uses BFS wash paths instead of the exact search.
	HeuristicPaths bool
	// HeuristicWindows skips the time-window search and keeps the
	// greedy sweep assignment.
	HeuristicWindows bool
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 && o.Beta == 0 && o.Gamma == 0 {
		o.Alpha, o.Beta, o.Gamma = 0.3, 0.3, 0.4
	}
	o.Budget.PerPath = solve.Or(o.Budget.PerPath, 3*time.Second)
	o.Budget.Window = solve.Or(o.Budget.Window, 10*time.Second)
	if o.MergeRadius <= 0 {
		o.MergeRadius = 4
	}
	return o
}

// Result is PDW's output.
type Result struct {
	// Schedule is the optimized execution procedure.
	Schedule *schedule.Schedule
	// Washes are the wash operations (paths, targets, integrations).
	Washes []replan.WashSpec
	// Objective is Eq. 26 evaluated on the result.
	Objective float64
	// WindowsOptimal reports whether the time-window search proved
	// its schedule optimal (false when the time limit returned
	// best-effort).
	WindowsOptimal bool
	// Rounds counts wash-insertion fixpoint rounds.
	Rounds int
	// IntegratedRemovals counts removals absorbed into washes (ψ=1).
	IntegratedRemovals int
	// Skips are the first-round necessity-analysis statistics: how many
	// contamination events each Type 1/2/3 rule excused from washing
	// (Sec. II-A's central observation).
	Skips map[contam.SkipReason]int
	// Stats is the structured solve telemetry: phase wall times, every
	// ILP's size and branch & bound effort, incumbent trajectories, and
	// the skip counts above keyed by rule name.
	Stats *solve.Stats
}

// Optimize runs PDW on a wash-free base schedule; see OptimizeContext.
func Optimize(base *schedule.Schedule, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), base, opts)
}

// OptimizeContext runs PDW under ctx. Cancellation (or expiry of the
// ctx deadline / Options.Budget.Total) never aborts with an error once
// the pipeline is running: the wash-insertion fixpoint still runs to a
// contamination-free fixpoint (a partially washed schedule is not a
// feasible incumbent), but every loop inside it polls an amortized
// solve.Checkpoint, and once cancellation is observed the remaining
// rounds run in completion mode — wash paths degrade to the BFS
// heuristic, group merging and ψ-integration are skipped, and the
// time-window search is bypassed in favor of its greedy incumbent. The
// result is the best feasible (clean, valid) schedule reached — with
// Stats.Canceled set so callers can tell — and the distance between
// deadline expiry and return is recorded in the
// pdw_deadline_overrun_seconds histogram (the cancellation granularity
// contract in DESIGN.md).
func OptimizeContext(ctx context.Context, base *schedule.Schedule, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ctx, stop := opts.Budget.Context(ctx)
	defer stop()
	defer func() { solve.ObserveOverrun(ctx) }()
	ctx, span := obs.Start(ctx, "pdw.optimize",
		obs.A("tasks", len(base.Tasks())),
		obs.A("exact_paths", !opts.HeuristicPaths),
		obs.A("exact_windows", !opts.HeuristicWindows))
	defer span.End()
	stats := &solve.Stats{}
	// Mirror phase transitions and cancellation into the live progress
	// view when the root caller (service request, CLI, benchmark)
	// attached one to the context.
	stats.BindProgress(solve.ProgressFromContext(ctx))
	cp := solve.NewCheckpoint(ctx)
	pol := contam.Policy{}
	if opts.DisableNecessity {
		pol = contam.Policy{IgnoreFluidTypes: true}
	}

	insCtx, endInsertion := stats.StartPhaseContext(ctx, "wash-insertion")
	// integrated marks the removals absorbed into a wash so far.
	integrated := map[string]bool{}
	ins, err := replan.Fixpoint{
		Policy:    pol,
		MaxRounds: opts.MaxRounds,
		Round: func(ctx context.Context, cur *schedule.Schedule, groups []contam.Group) ([]replan.WashSpec, error) {
			// Merging is a quality optimization, not a soundness
			// requirement: once the budget expired the O(n³) merge
			// fixpoint is skipped.
			if !opts.DisableMerge && !cp.Canceled() {
				groups = contam.MergeGroups(groups, opts.MergeRadius)
			}
			var specs []replan.WashSpec
			for _, g := range groups {
				gs, err := buildWashSpecs(ctx, &cp, cur, g, integrated, opts, stats)
				if err != nil {
					return nil, err
				}
				specs = append(specs, gs...)
			}
			return specs, nil
		},
	}.Run(insCtx, &cp, base)
	if err != nil {
		return nil, err
	}
	endInsertion()

	res := &Result{Washes: ins.Washes, Rounds: ins.Rounds, Skips: ins.Skips, Stats: stats}
	for _, w := range res.Washes {
		res.IntegratedRemovals += len(w.Integrates)
	}
	stats.SetSkips(ins.SkipNames())

	// Final time-window optimization (Eqs. 16-22 with disjunctions). A
	// base that was already clean ran no round: re-time it greedily.
	plan, cur := ins.Plan, ins.Schedule
	if plan == nil {
		if plan, err = replan.Build(base, nil); err != nil {
			return nil, err
		}
		if cur, err = plan.Greedy(); err != nil {
			return nil, err
		}
	}
	final := cur
	// A done context skips the window search outright: its result would
	// be the greedy incumbent (which final already is), and even
	// building the model costs a pass over every edge. The phase keeps
	// the MILP's name (see windowLabel).
	if !opts.HeuristicWindows && len(res.Washes) > 0 && cp.Err() == nil {
		wctx, endWindows := stats.StartPhaseContext(ctx, windowLabel)
		optimized, optimal, err := optimizeWindows(wctx, plan, cur, opts.Budget.Window, stats)
		endWindows()
		if err == nil && optimized != nil {
			if contam.Verify(optimized) == nil {
				final = optimized
				res.WindowsOptimal = optimal
			}
		}
	}
	_, endVerify := stats.StartPhaseContext(ctx, "verify")
	if err := final.Validate(); err != nil {
		return nil, fmt.Errorf("pdw: final schedule invalid: %w", err)
	}
	if err := contam.Verify(final); err != nil {
		return nil, fmt.Errorf("pdw: final schedule not clean: %w", err)
	}
	endVerify()
	if cp.Err() != nil {
		stats.MarkCanceled()
	}
	res.Schedule = final
	m := final.ComputeMetrics(base)
	res.Objective = Objective(m, opts.Alpha, opts.Beta, opts.Gamma)
	if span != nil {
		span.SetAttr("rounds", res.Rounds)
		span.SetAttr("washes", len(res.Washes))
		span.SetAttr("n_wash", m.NWash)
		span.SetAttr("objective", res.Objective)
		span.SetAttr("canceled", res.Stats.Canceled)
	}
	obs.Default().Counter("pdw_optimize_runs_total").Inc()
	obs.Default().Counter("pdw_washes_built_total").Add(int64(len(res.Washes)))
	return res, nil
}

// buildWashSpecs turns one demand group into wash specs. Paths are
// built for the group's own targets first (exact or BFS per options);
// excess removals are then absorbed only when (nearly) free: either the
// wash path already flushes over the removal's excess cells, or
// extending the path to cover them keeps a single path and adds at most
// a couple of cells. Anything costlier would *increase* N_wash/L_wash —
// the opposite of what Sec. II-B's integration is for.
//
// Once the checkpoint observes cancellation, remaining paths drop to
// the BFS heuristic and the integration scan stops: both are quality
// optimizations, and skipping them keeps the post-deadline tail to the
// washes the fixpoint still has to insert for soundness.
func buildWashSpecs(ctx context.Context, cp *solve.Checkpoint, cur *schedule.Schedule, g contam.Group,
	integrated map[string]bool, opts Options, stats *solve.Stats) ([]replan.WashSpec, error) {

	cp.Err()
	wopts := washpath.Options{Exact: !opts.HeuristicPaths && !cp.Canceled(),
		TimeLimit: opts.Budget.PerPath, Trace: stats}
	plans, covered, err := washpath.BuildCoverContext(ctx, cur.Chip, g.Targets, wopts)
	if err != nil {
		return nil, fmt.Errorf("pdw: wash path for %v: %w", g.Targets, err)
	}
	if onCover != nil {
		onCover()
	}

	var states []*specState
	for i, plan := range plans {
		states = append(states, &specState{
			spec: replan.WashSpec{
				Path:     plan.Path,
				Targets:  covered[i],
				Culprits: append([]string(nil), g.Culprits...),
				Before:   append([]string(nil), g.Before...),
			},
			ready: g.Ready, deadline: g.Deadline,
		})
	}

	if !opts.DisableIntegration && !cp.Canceled() {
		for _, rm := range cur.TasksOf(schedule.Removal) {
			// The removals × states product with a path build per
			// candidate is the wash-insertion inner hot loop; a deadline
			// stops the scan here, keeping the specs built so far.
			if cp.Check() != nil {
				break
			}
			if rm.Integrated || integrated[rm.ID] || len(rm.ExcessCells) == 0 {
				continue
			}
			trID, ok := replan.TransportIDForRemoval(rm.ID, rm.EdgeFrom, rm.EdgeTo)
			if !ok {
				continue
			}
			tr := cur.Task(trID)
			user := cur.Task("op-" + rm.EdgeTo)
			if tr == nil || user == nil {
				continue
			}
			for _, st := range states {
				// Eq. 21 window: wash after the transport, before the op.
				nr := max(st.ready, tr.End)
				nd := min(st.deadline, user.Start)
				if nr >= nd {
					continue
				}
				if st.spec.Path.Covers(rm.ExcessCells) {
					// Free: the buffer already flushes these cells.
					st.integrate(rm, trID, nr, nd, nil, nil)
					integrated[rm.ID] = true
					break
				}
				if minDistance(st.spec.Targets, rm.ExcessCells) > opts.MergeRadius {
					continue
				}
				// Try extending the path; accept a single slightly
				// longer path only.
				extended := append(append([]geom.Point(nil), st.spec.Targets...), rm.ExcessCells...)
				plan, err := washpath.BuildContext(ctx, cur.Chip, washpath.Request{Targets: extended}, wopts)
				if err != nil || plan.Path.Len() > st.spec.Path.Len()+2+len(rm.ExcessCells) {
					continue
				}
				st.integrate(rm, trID, nr, nd, &plan.Path, extended)
				integrated[rm.ID] = true
				break
			}
		}
	}

	var specs []replan.WashSpec
	for _, st := range states {
		st.spec.Duration = dawo.WashDuration(cur, st.spec.Path.Len())
		specs = append(specs, st.spec)
	}
	return specs, nil
}

// onCover, when set, is called after every wash cover buildWashSpecs
// builds; tests cancel a run at a known point through it.
var onCover func()

// specState is a wash spec under construction with its current
// base-time execution window.
type specState struct {
	spec            replan.WashSpec
	ready, deadline int
}

// integrate records the ψ=1 absorption of a removal into the spec,
// optionally replacing the wash path with an extended one.
func (st *specState) integrate(rm *schedule.Task, trID string, nr, nd int,
	newPath *grid.Path, newTargets []geom.Point) {
	st.ready, st.deadline = nr, nd
	st.spec.Integrates = append(st.spec.Integrates, rm.ID)
	st.spec.Culprits = appendUnique(st.spec.Culprits, trID)
	st.spec.Before = appendUnique(st.spec.Before, "op-"+rm.EdgeTo)
	if newPath != nil {
		st.spec.Path = *newPath
		st.spec.Targets = newTargets
	}
	// The excess cells become hard targets so a later path extension for
	// another integration cannot drop them (Eq. 21 must keep holding).
	// The targets may share storage with another spec's (the wash cover
	// hands out halves of one chain), so appending must copy them.
	st.spec.Targets = slices.Clip(st.spec.Targets)
	for _, c := range rm.ExcessCells {
		if !containsPoint(st.spec.Targets, c) {
			st.spec.Targets = append(st.spec.Targets, c)
		}
	}
}

func minDistance(a, b []geom.Point) int {
	best := 1 << 30
	for _, p := range a {
		for _, q := range b {
			if d := p.Manhattan(q); d < best {
				best = d
			}
		}
	}
	return best
}

func containsPoint(pts []geom.Point, p geom.Point) bool {
	for _, q := range pts {
		if q == p {
			return true
		}
	}
	return false
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// Objective evaluates Eq. 26 for a finished schedule.
func Objective(m schedule.Metrics, alpha, beta, gamma float64) float64 {
	return alpha*float64(m.NWash) + beta*m.LWashMM + gamma*float64(m.TAssay)
}
