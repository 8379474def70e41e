package pathdriver

import (
	"context"
	"fmt"

	"pathdriverwash/internal/assayio"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/pdw"
)

// This file is the redesigned, context-first core of the public API:
// one canonical Options shape shared by every optimizer entry point
// (and embedded verbatim in the pdwd wire schema), one canonical
// Request/Response pair, and one Solve function that runs the whole
// pipeline — synthesis, the wash-free reference, wash optimization,
// metrics — under a single context and budget.

// Weights are the objective weights of Eq. 26: Alpha scales the wash
// count N_wash, Beta the total wash path length L_wash, Gamma the assay
// completion time T_assay. The zero value selects the paper's defaults
// (0.3, 0.3, 0.4).
type Weights struct {
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
}

// Options is the canonical knob set of the solve pipeline, shared by
// OptimizeWash, Baseline, and Solve, and reused verbatim as the
// "options" object of the pdwd wire schema (DESIGN.md "Wire schema
// v1"). SynthConfig stays separate: it configures the substrate, not
// the solve. The zero value enables every technique with the paper's
// parameters and no deadline.
type Options struct {
	// Budget bounds the solve end to end: Total is enforced as a
	// context deadline over the whole pipeline, PerPath caps each
	// wash-path search and Window the time-window search. On the wire,
	// durations are "2s"-style strings or integer nanoseconds.
	Budget Budget `json:"budget"`
	// Weights weight Eq. 26.
	Weights Weights `json:"weights"`
	// MergeRadius is the Manhattan distance under which wash groups
	// merge into one path (0: default 4).
	MergeRadius int `json:"merge_radius,omitempty"`
	// MaxRounds caps wash-insertion fixpoint rounds (0: default 60).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Heuristic selects BFS wash paths and greedy windows instead of
	// the exact searches — the cheap mode the service degrades to under
	// load.
	Heuristic bool `json:"heuristic,omitempty"`
	// DisableNecessity, DisableMerge, and DisableIntegration switch off
	// individual PDW techniques (the ablations of DESIGN.md).
	DisableNecessity   bool `json:"disable_necessity,omitempty"`
	DisableMerge       bool `json:"disable_merge,omitempty"`
	DisableIntegration bool `json:"disable_integration,omitempty"`
}

// pdwOptions lowers the canonical shape onto the PDW optimizer.
func (o Options) pdwOptions() pdw.Options {
	return pdw.Options{
		Alpha: o.Weights.Alpha, Beta: o.Weights.Beta, Gamma: o.Weights.Gamma,
		Budget:      o.Budget,
		MergeRadius: o.MergeRadius, MaxRounds: o.MaxRounds,
		HeuristicPaths: o.Heuristic, HeuristicWindows: o.Heuristic,
		DisableNecessity:   o.DisableNecessity,
		DisableMerge:       o.DisableMerge,
		DisableIntegration: o.DisableIntegration,
	}
}

// dawoOptions lowers the canonical shape onto the DAWO baseline (which
// has no ILPs, weights, or merge radius).
func (o Options) dawoOptions() dawo.Options {
	return dawo.Options{Budget: o.Budget, MaxRounds: o.MaxRounds}
}

// Method selects the optimizer a Request runs.
type Method string

const (
	// MethodPDW is PathDriver-Wash, the paper's contribution.
	MethodPDW Method = "pdw"
	// MethodDAWO is the delay-aware baseline of Sec. IV.
	MethodDAWO Method = "dawo"
)

// AssayDocument is the self-contained JSON description of a solve
// input: the assay's sequencing graph plus the synthesis configuration
// (device library, ports, chip physical parameters). Build one from an
// in-memory Assay with NewAssayDocument, or decode it straight from
// JSON — it is the "assay" object of the pdwd wire schema.
type AssayDocument = assayio.Document

// NewAssayDocument packages an assay and its synthesis configuration
// into the document shape Requests carry.
func NewAssayDocument(a *Assay, cfg SynthConfig) AssayDocument {
	return assayio.ToDocument(a, cfg)
}

// Request is the canonical description of one solve: what to run
// (assay + chip-synthesis config), with which optimizer, under which
// options and budget. It is pure data — JSON-serializable, hashable,
// and identical between the library API and the pdwd wire schema.
type Request struct {
	// Assay is the protocol and synthesis configuration.
	Assay AssayDocument `json:"assay"`
	// Method selects the optimizer ("" means MethodPDW).
	Method Method `json:"method,omitempty"`
	// Options tunes the solve.
	Options Options `json:"options"`
}

// Response is the result of one solve.
type Response struct {
	// Method is the optimizer that ran.
	Method Method
	// Schedule is the optimized, contamination-free execution
	// procedure.
	Schedule *Schedule
	// Reference is the wash-free schedule the delay metrics are
	// measured against: the input re-timed as soon as its precedence
	// DAG allows (CompressBase).
	Reference *Schedule
	// Washes is the number of wash operations inserted.
	Washes int
	// Objective is Eq. 26 on the result (PDW only).
	Objective float64
	// WindowsOptimal reports proven-optimal time windows (PDW only;
	// false for heuristic windows or best-effort incumbents).
	WindowsOptimal bool
	// Rounds counts wash-insertion fixpoint rounds.
	Rounds int
	// Metrics are the paper's evaluation quantities versus Reference.
	Metrics Metrics
	// Stats is the structured solve telemetry; Stats.Canceled reports a
	// budget-expired run that degraded to heuristic incumbents.
	Stats *SolveStats
}

// Solve runs the whole pipeline for one Request: synthesis, the
// wash-free reference, wash optimization, and metrics, under ctx and
// the request's budget. Budget expiry or ctx cancellation degrades
// gracefully — the response still carries a valid contamination-free
// schedule with Stats.Canceled set — unless cancellation lands before
// synthesis produced a usable base, in which case the error wraps
// ErrBudgetExceeded. Invalid documents wrap ErrInvalidAssay.
func Solve(ctx context.Context, req Request) (*Response, error) {
	ctx, cancel := req.Options.Budget.Context(ctx)
	defer cancel()
	method := req.Method
	if method == "" {
		method = MethodPDW
	}
	a, cfg, err := assayio.FromDocument(req.Assay)
	if err != nil {
		return nil, err
	}
	syn, err := Synthesize(ctx, a, cfg)
	if err != nil {
		return nil, err
	}
	ref, err := CompressBase(syn.Schedule)
	if err != nil {
		return nil, err
	}
	resp := &Response{Method: method, Reference: ref}
	switch method {
	case MethodPDW:
		res, err := OptimizeWash(ctx, syn.Schedule, req.Options)
		if err != nil {
			return nil, err
		}
		resp.Schedule = res.Schedule
		resp.Washes = len(res.Washes)
		resp.Objective = res.Objective
		resp.WindowsOptimal = res.WindowsOptimal
		resp.Rounds = res.Rounds
		resp.Stats = res.Stats
	case MethodDAWO:
		res, err := Baseline(ctx, syn.Schedule, req.Options)
		if err != nil {
			return nil, err
		}
		resp.Schedule = res.Schedule
		resp.Washes = len(res.Washes)
		resp.Rounds = res.Rounds
		resp.Stats = res.Stats
	default:
		return nil, fmt.Errorf("pathdriver: unknown method %q (want %q or %q): %w",
			method, MethodPDW, MethodDAWO, ErrInvalidAssay)
	}
	resp.Metrics = resp.Schedule.ComputeMetrics(ref)
	return resp, nil
}
