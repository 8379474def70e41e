// Package pathdriver is the public API of the PathDriver-Wash library:
// wash optimization for continuous-flow lab-on-a-chip biochips
// (Huang et al., DATE 2024).
//
// The API is context-first: every solver entry point takes a
// context.Context, and cancellation or Budget expiry degrades
// gracefully to the best feasible incumbent instead of erroring. A
// typical flow:
//
//	ctx := context.Background()
//	a := pathdriver.NewAssay("my-assay")
//	a.MustAddOp(&pathdriver.Operation{ID: "o1", Kind: pathdriver.Mix,
//	        Duration: 2, Output: "f1", Reagents: []pathdriver.FluidType{"r1", "r2"}})
//	...
//	syn, _ := pathdriver.Synthesize(ctx, a, pathdriver.SynthConfig{})
//	res, _ := pathdriver.OptimizeWash(ctx, syn.Schedule, pathdriver.Options{})
//	fmt.Println(res.Schedule.Gantt())
//
// Or, as one canonical call — the shape the pdwd solve service speaks:
//
//	doc := pathdriver.NewAssayDocument(a, pathdriver.SynthConfig{})
//	resp, _ := pathdriver.Solve(ctx, pathdriver.Request{Assay: doc,
//	        Options: pathdriver.Options{Budget: pathdriver.Budget{Total: 2 * time.Second}}})
//
// Synthesize stands in for the PathDriver+ tool (chip architecture and
// wash-free scheduling); OptimizeWash is the paper's contribution;
// Baseline is the DAWO comparator used in the evaluation.
package pathdriver

import (
	"context"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/control"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

// Budgets, cancellation, and telemetry re-exports.
type (
	// Budget bounds a solve: Total is the end-to-end deadline applied as
	// a context deadline; PerPath and Window cap the wash-path ILPs and
	// the time-window MILP.
	Budget = solve.Budget
	// SolveStats is the structured telemetry attached to PDWResult and
	// DAWOResult: per-phase wall times, branch-and-bound node and pruning
	// counts, simplex iterations, the incumbent trajectory, wash-path ILP
	// sizes, and Type 1/2/3 skip counts.
	SolveStats = solve.Stats
	// MILPStat describes one MILP solved during optimization.
	MILPStat = solve.MILPStat
)

// Sentinel errors, matchable with errors.Is through every layer's
// wrapping.
var (
	// ErrInfeasible marks a model with no feasible point (an impossible
	// wash-path cover, an infeasible window MILP, an unsatisfiable device
	// library).
	ErrInfeasible = solve.ErrInfeasible
	// ErrBudgetExceeded marks a solve aborted by a Budget, TimeLimit, or
	// context deadline before reaching a usable answer. Optimizers that
	// hold a feasible incumbent degrade to it instead of returning this.
	ErrBudgetExceeded = solve.ErrBudgetExceeded
	// ErrInvalidAssay marks a protocol that fails validation.
	ErrInvalidAssay = solve.ErrInvalidAssay
)

// Assay modelling re-exports.
type (
	// Assay is a bioassay protocol: the sequencing graph G(O,E).
	Assay = assay.Assay
	// Operation is one biochemical operation o_i.
	Operation = assay.Operation
	// FluidType identifies a fluid sample/reagent class.
	FluidType = assay.FluidType
	// OpKind is the biochemical operation class.
	OpKind = assay.OpKind
)

// Operation kinds.
const (
	Mix    = assay.Mix
	Heat   = assay.Heat
	Detect = assay.Detect
	Filter = assay.Filter
	Dilute = assay.Dilute
	Store  = assay.Store
)

// Waste is the distinguished discarded-product fluid type.
const Waste = assay.Waste

// Chip modelling re-exports.
type (
	// Chip is the virtual-grid biochip architecture.
	Chip = grid.Chip
	// Device is a placed on-chip device.
	Device = grid.Device
	// Port is a flow (injection) or waste boundary port.
	Port = grid.Port
	// Path is a flow path over grid cells.
	Path = grid.Path
	// DeviceKind is the functional device type.
	DeviceKind = grid.DeviceKind
)

// Port kinds.
const (
	FlowPort  = grid.FlowPort
	WastePort = grid.WastePort
)

// Geometry re-exports for building custom chips.
type (
	// Point is a grid cell coordinate.
	Point = geom.Point
	// Rect is a rectangle of grid cells (Min inclusive, Max exclusive).
	Rect = geom.Rect
)

// Pt constructs a grid point.
func Pt(x, y int) Point { return geom.Pt(x, y) }

// Rc constructs a cell rectangle from (x0,y0) to (x1,y1) exclusive.
func Rc(x0, y0, x1, y1 int) Rect { return geom.Rc(x0, y0, x1, y1) }

// Scheduling re-exports.
type (
	// Schedule is an assay execution procedure.
	Schedule = schedule.Schedule
	// Task is one schedule entry (operation, transport, removal,
	// disposal, or wash).
	Task = schedule.Task
	// Metrics aggregates the paper's evaluation quantities.
	Metrics = schedule.Metrics
)

// Synthesis re-exports.
type (
	// SynthConfig tunes the PathDriver-like synthesis substrate.
	SynthConfig = synth.Config
	// DeviceSpec requests devices in the synthesis library.
	DeviceSpec = synth.DeviceSpec
	// SynthResult is a chip plus a wash-free scheduling.
	SynthResult = synth.Result
)

// Optimizer re-exports.
type (
	// PDWResult is PathDriver-Wash's output.
	PDWResult = pdw.Result
	// DAWOResult is the baseline's output.
	DAWOResult = dawo.Result
	// Benchmark is one Table II workload.
	Benchmark = benchmarks.Benchmark
)

// NewAssay creates an empty assay protocol.
func NewAssay(name string) *Assay { return assay.New(name) }

// NewChip creates an empty custom chip of the given grid size.
func NewChip(name string, w, h int) *Chip { return grid.NewChip(name, w, h) }

// Synthesize builds a chip architecture and a wash-free scheduling for
// the assay (the inputs the wash optimizers consume). A context that is
// already done aborts with ErrBudgetExceeded; synthesis otherwise runs
// to completion (it is fast and has no usable partial result).
func Synthesize(ctx context.Context, a *Assay, cfg SynthConfig) (*SynthResult, error) {
	return synth.SynthesizeContext(ctx, a, cfg)
}

// SynthesizeOnChip schedules the assay on a caller-provided chip, with
// the same context contract as Synthesize.
func SynthesizeOnChip(ctx context.Context, a *Assay, c *Chip) (*SynthResult, error) {
	return synth.SynthesizeOnChipContext(ctx, a, c)
}

// OptimizeWash runs PathDriver-Wash on a wash-free schedule.
// Cancellation (or expiry of opts.Budget.Total) degrades gracefully:
// remaining exact searches fall back to their heuristic incumbents and
// the result is still a valid contamination-free schedule, with
// Stats.Canceled set — never an error.
func OptimizeWash(ctx context.Context, base *Schedule, opts Options) (*PDWResult, error) {
	return pdw.OptimizeContext(ctx, base, opts.pdwOptions())
}

// Baseline runs the DAWO comparison baseline on a wash-free schedule,
// with the same graceful degradation as OptimizeWash.
func Baseline(ctx context.Context, base *Schedule, opts Options) (*DAWOResult, error) {
	return dawo.OptimizeContext(ctx, base, opts.dawoOptions())
}

// CompressBase re-times a wash-free schedule as soon as its precedence
// DAG allows, the fair reference for delay measurements; a task that
// misses its longest-path start is an error. It runs no solver, so it
// takes no context.
func CompressBase(base *Schedule) (*Schedule, error) {
	return pdw.CompressBase(base)
}

// VerifyClean checks that a schedule executes without
// cross-contamination: every residue is washed before a sensitive use.
func VerifyClean(s *Schedule) error { return contam.Verify(s) }

// Benchmarks returns the paper's eight Table II workloads.
func Benchmarks() []*Benchmark { return benchmarks.All() }

// BenchmarkByName looks up a Table II workload.
func BenchmarkByName(name string) (*Benchmark, error) { return benchmarks.ByName(name) }

// MotivatingExample returns the paper's Figs. 1(c)/2 running example:
// the seven-operation assay and the hand-built chip it executes on.
func MotivatingExample() (*Assay, *Chip, error) { return benchmarks.Motivating() }

// Control-layer re-exports (the microvalve model of Fig. 1(a)/(b)).
type (
	// ControlLayer is a chip's synthesized microvalve set.
	ControlLayer = control.Layer
	// ControlPlan is a schedule's valve actuation plan with control-pin
	// sharing and switching counts.
	ControlPlan = control.Plan
)

// SynthesizeControl places microvalves on the chip's junction arms and
// port stubs.
func SynthesizeControl(c *Chip) *ControlLayer { return control.Synthesize(c) }

// PlanControl derives the valve actuation plan for a schedule,
// verifying valve-state consistency and sharing control pins.
func PlanControl(l *ControlLayer, s *Schedule) (*ControlPlan, error) {
	return control.BuildPlan(l, s)
}

// MergeAssays composes several assays into one multiplexed protocol
// running concurrently on a single chip (the shape of the Kinase act-2
// benchmark). Operation IDs are prefixed with the part names.
func MergeAssays(name string, parts ...*Assay) (*Assay, error) {
	return assay.Merge(name, parts...)
}
