// Package contam tracks cross-contamination across an assay schedule and
// performs the wash-necessity analysis of Sec. II-A / Eqs. (9)-(11):
//
//   - every active task deposits residue on its ContamCells when it
//     completes (the set R_c and times t^c of the paper);
//   - wash tasks clean every cell of their path when they complete;
//   - a *sensitive use* is a task whose fluid would be corrupted by
//     foreign residue on a cell: transports/injections over their plug
//     region, operations over their device cells. Excess removals and
//     waste disposals carry fluid to waste and are never sensitive
//     (the Q=1 rule, Type 3);
//   - residue of the same fluid type as the user is harmless (Type 2);
//   - residue never touched by a sensitive use needs no wash (Type 1).
//
// Analyze returns, for a given schedule, the contamination events and the
// outstanding wash Requirements: (cell, residue, latest contamination
// time, deadline, blocking task). On a wash-free schedule these drive
// PDW and the DAWO baseline; on an optimized schedule an empty
// requirement list certifies contamination-free execution, which the
// test-suite uses as the correctness oracle.
package contam

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// Event is one contamination: cell (x,y) carries residue Fluid from time
// At (the paper's t^c_{x,y}), deposited by task TaskID.
type Event struct {
	Cell   geom.Point
	Fluid  assay.FluidType
	At     int
	TaskID string
}

// SkipReason classifies why a contamination event needs no wash.
type SkipReason int

// Skip classifications of Sec. II-A. NoSkip marks events that produced
// at least one wash requirement.
const (
	NoSkip SkipReason = iota
	// Type1: the cell is never used by a sensitive task afterwards.
	Type1
	// Type2: every later sensitive use carries the same fluid type.
	Type2
	// Type3: the cell is only used by waste carriers afterwards.
	Type3
)

// String names the skip reason.
func (r SkipReason) String() string {
	switch r {
	case NoSkip:
		return "wash-needed"
	case Type1:
		return "type1-unused"
	case Type2:
		return "type2-same-fluid"
	case Type3:
		return "type3-waste-only"
	}
	return fmt.Sprintf("SkipReason(%d)", int(r))
}

// Requirement demands that cell Cell be washed inside the window
// (ReadyAt, Deadline): after the last contaminating task ends and before
// the sensitive user starts (Eq. 16 derives wash windows from these).
type Requirement struct {
	Cell geom.Point
	// Fluids lists the residue types present at the deadline.
	Fluids []assay.FluidType
	// ReadyAt is the end time of the last contaminating task before the
	// use; a wash must start at or after it.
	ReadyAt int
	// Deadline is the start time of the sensitive user; a wash must end
	// at or before it.
	Deadline int
	// CulpritTasks are the tasks whose residue must be removed (the wash
	// must be ordered after all of them).
	CulpritTasks []string
	// BeforeTask is the sensitive user the wash must precede.
	BeforeTask string
}

// String renders the requirement compactly.
func (r Requirement) String() string {
	return fmt.Sprintf("wash %v in (%d,%d] before %s", r.Cell, r.ReadyAt, r.Deadline, r.BeforeTask)
}

// Analysis is the result of Analyze.
type Analysis struct {
	// Events are all contamination events in (At, TaskID, cell) order.
	Events []Event
	// Requirements are the outstanding wash demands in (Deadline, cell)
	// order. Empty on a correctly washed schedule.
	Requirements []Requirement
	// Skips counts contamination events per skip classification.
	Skips map[SkipReason]int
}

// Policy selects how conservatively contamination is judged. The zero
// value is PDW's necessity analysis (Sec. II-A). The DAWO baseline and
// the ablation benches use the conservative switch.
type Policy struct {
	// IgnoreFluidTypes treats residue of any foreign task as
	// contaminating even when the fluid types match, disabling the
	// Type-2 skip.
	IgnoreFluidTypes bool
}

// Analyze simulates the schedule and returns contamination events and
// outstanding wash requirements under PDW's necessity analysis.
func Analyze(s *schedule.Schedule) (*Analysis, error) {
	return AnalyzeWithPolicy(s, Policy{})
}

// AnalyzeContext is Analyze under a context: the event-collection and
// requirement-derivation loops poll an amortized checkpoint and abort
// with ErrBudgetExceeded once the context is done. A partial analysis
// is never returned — callers that must finish (the wash-insertion
// fixpoints, which need a complete analysis to stay sound) keep using
// Analyze; callers that can reject (the corpus washability proof, the
// differential oracle) use this form so a deadline cannot be overrun
// by one large analysis.
func AnalyzeContext(ctx context.Context, s *schedule.Schedule) (*Analysis, error) {
	return AnalyzeWithPolicyContext(ctx, s, Policy{})
}

// AnalyzeWithPolicy is Analyze under an explicit conservatism policy.
func AnalyzeWithPolicy(s *schedule.Schedule, pol Policy) (*Analysis, error) {
	return analyzeWithPolicy(nil, s, pol)
}

// AnalyzeWithPolicyContext is AnalyzeContext under an explicit policy.
func AnalyzeWithPolicyContext(ctx context.Context, s *schedule.Schedule, pol Policy) (*Analysis, error) {
	cp := solve.NewCheckpoint(ctx)
	return analyzeWithPolicy(&cp, s, pol)
}

// cancelErr wraps a checkpoint cancellation in the contam error
// contract.
func cancelErr(err error) error {
	return fmt.Errorf("contam: analysis canceled: %w: %w", solve.ErrBudgetExceeded, err)
}

// cellLog is what happens on one cell of the chip. Tasks and fluids
// are indices into the schedule's tasks and the analysis's fluids.
type cellLog struct {
	events []cellEvent // contaminations, in task order
	washes []int       // wash-completion times
	uses   []cellUse   // sensitive uses, in task order
	waste  []int       // waste-carrier use starts (Type 3 stats)
}

// cellEvent is a contamination of the cell by task with fluid from at.
// demanded marks one that some requirement washes away.
type cellEvent struct {
	at, task, fluid int
	demanded        bool
}

// cellUse is a sensitive use of the cell by task from start.
type cellUse struct {
	start, task int
}

// fluidIDs numbers the fluid types of one analysis.
type fluidIDs struct {
	id    map[assay.FluidType]int
	names []assay.FluidType
}

func (f *fluidIDs) of(t assay.FluidType) int {
	i, ok := f.id[t]
	if !ok {
		i = len(f.names)
		f.id[t] = i
		f.names = append(f.names, t)
	}
	return i
}

func analyzeWithPolicy(cp *solve.Checkpoint, s *schedule.Schedule, pol Policy) (*Analysis, error) {
	if s.Chip == nil {
		return nil, fmt.Errorf("contam: schedule has no chip")
	}
	an := &Analysis{Skips: map[SkipReason]int{}}
	chip, tasks := s.Chip, s.Tasks()
	logs := make([]cellLog, chip.W*chip.H)
	cell := func(p geom.Point) *cellLog { return &logs[p.Y*chip.W+p.X] }
	fluids := fluidIDs{id: map[assay.FluidType]int{}}
	// tolerate[i] are the foreign fluids harmless to task i's uses.
	tolerate := make([][]int, len(tasks))
	opTol := map[string][]int{}
	tolerated := func(opID string) []int {
		tol, ok := opTol[opID]
		if !ok {
			for f := range opTolerated(s.Assay, opID) {
				tol = append(tol, fluids.of(f))
			}
			opTol[opID] = tol
		}
		return tol
	}

	var contaminators []int // tasks leaving residue
	nEvents := 0
	for i, t := range tasks {
		if err := cp.Check(); err != nil {
			return nil, cancelErr(err)
		}
		if !t.Active() {
			continue
		}
		if err := onChip(chip, t); err != nil {
			return nil, err
		}
		switch t.Kind {
		case schedule.Wash:
			for _, c := range t.Path.Cells {
				l := cell(c)
				l.washes = append(l.washes, t.End)
			}
		default:
			f := fluids.of(t.Fluid)
			for _, c := range t.ContamCells {
				l := cell(c)
				l.events = append(l.events, cellEvent{at: t.End, task: i, fluid: f})
			}
			if len(t.ContamCells) > 0 {
				contaminators = append(contaminators, i)
				nEvents += len(t.ContamCells)
			}
		}
		var sensitive, waste []geom.Point
		switch t.Kind {
		case schedule.Transport:
			sensitive = t.SensitiveCells
			// Residue of the destination op's other inputs is harmless:
			// those fluids are about to be mixed anyway.
			if len(sensitive) > 0 && !pol.IgnoreFluidTypes {
				tolerate[i] = append(slices.Clip(tolerated(t.EdgeTo)), fluids.of(t.Fluid))
			}
		case schedule.Operation:
			sensitive = t.SensitiveCells
			if !pol.IgnoreFluidTypes {
				tolerate[i] = tolerated(t.OpID)
			}
		case schedule.Removal, schedule.WasteDisposal:
			waste = t.Path.Cells
		}
		for _, c := range sensitive {
			l := cell(c)
			l.uses = append(l.uses, cellUse{start: t.Start, task: i})
		}
		for _, c := range waste {
			l := cell(c)
			l.waste = append(l.waste, t.Start)
		}
	}

	// Requirements: for each sensitive use, the foreign residue present
	// when it starts (deposited after the last wash) must be washed away.
	// A task listing a cell twice uses it once: met[i] == c+1 marks task
	// i's use of cell c as judged.
	met := make([]int, len(tasks))
	var fl, culprits []int
	for c := range logs {
		l := &logs[c]
		for _, u := range l.uses {
			// The (cell, use) x events product is the quadratic heart of
			// the analysis; the checkpoint bounds a deadline to one
			// stride of it.
			if err := cp.Check(); err != nil {
				return nil, cancelErr(err)
			}
			if met[u.task] == c+1 {
				continue
			}
			met[u.task] = c + 1
			lastWash := -1
			for _, w := range l.washes {
				if w <= u.start && w > lastWash {
					lastWash = w
				}
			}
			fl, culprits = fl[:0], culprits[:0]
			ready := -1
			for k := range l.events {
				ev := &l.events[k]
				if ev.at > u.start || ev.at <= lastWash {
					continue
				}
				if ev.task == u.task {
					continue // a task does not contaminate itself
				}
				if slices.Contains(tolerate[u.task], ev.fluid) {
					continue
				}
				ev.demanded = true
				if !slices.Contains(fl, ev.fluid) {
					fl = append(fl, ev.fluid)
				}
				if !slices.Contains(culprits, ev.task) {
					culprits = append(culprits, ev.task)
				}
				ready = max(ready, ev.at)
			}
			if len(fl) == 0 {
				continue
			}
			r := Requirement{
				Cell: geom.Pt(c%chip.W, c/chip.W), ReadyAt: ready, Deadline: u.start,
				BeforeTask: tasks[u.task].ID,
			}
			for _, f := range fl {
				r.Fluids = append(r.Fluids, fluids.names[f])
			}
			for _, k := range culprits {
				r.CulpritTasks = append(r.CulpritTasks, tasks[k].ID)
			}
			an.Requirements = append(an.Requirements, r)
		}
	}

	// Skip statistics per contamination event (Sec. II-A's taxonomy).
	for c := range logs {
		l := &logs[c]
		for _, ev := range l.events {
			if err := cp.Check(); err != nil {
				return nil, cancelErr(err)
			}
			if ev.demanded {
				an.Skips[NoSkip]++
				continue
			}
			an.Skips[classifySkip(ev, l)]++
		}
	}

	slices.SortFunc(an.Requirements, func(a, b Requirement) int {
		if a.Deadline != b.Deadline {
			return cmp.Compare(a.Deadline, b.Deadline)
		}
		if a.Cell.Y != b.Cell.Y {
			return cmp.Compare(a.Cell.Y, b.Cell.Y)
		}
		if a.Cell.X != b.Cell.X {
			return cmp.Compare(a.Cell.X, b.Cell.X)
		}
		return strings.Compare(a.BeforeTask, b.BeforeTask)
	})
	// Events in (At, TaskID, cell) order: the contaminating tasks by
	// (end, ID), each one's cells row-major.
	slices.SortFunc(contaminators, func(i, j int) int {
		a, b := tasks[i], tasks[j]
		if a.End != b.End {
			return cmp.Compare(a.End, b.End)
		}
		return strings.Compare(a.ID, b.ID)
	})
	an.Events = make([]Event, 0, nEvents)
	for _, i := range contaminators {
		t, k := tasks[i], len(an.Events)
		for _, c := range t.ContamCells {
			an.Events = append(an.Events, Event{Cell: c, Fluid: t.Fluid, At: t.End, TaskID: t.ID})
		}
		slices.SortFunc(an.Events[k:], func(a, b Event) int {
			if a.Cell.Y != b.Cell.Y {
				return cmp.Compare(a.Cell.Y, b.Cell.Y)
			}
			return cmp.Compare(a.Cell.X, b.Cell.X)
		})
	}
	return an, nil
}

// onChip rejects a task that lists a cell off the chip.
func onChip(chip *grid.Chip, t *schedule.Task) error {
	for _, cells := range [][]geom.Point{t.Path.Cells, t.ContamCells, t.SensitiveCells} {
		for _, p := range cells {
			if !chip.InBounds(p) {
				return fmt.Errorf("contam: task %s lists cell %v off the %dx%d chip", t.ID, p, chip.W, chip.H)
			}
		}
	}
	return nil
}

// classifySkip explains why the event produced no requirement.
func classifySkip(ev cellEvent, l *cellLog) SkipReason {
	for _, u := range l.uses {
		if u.start >= ev.at && u.task != ev.task {
			return Type2 // later sensitive uses exist, all tolerated the fluid
		}
	}
	for _, w := range l.waste {
		if w >= ev.at {
			return Type3 // only waste carriers touch it afterwards
		}
	}
	return Type1
}

// opTolerated returns the fluid types harmless to an operation's device:
// its declared inputs (predecessor outputs and reagents) and its own
// output (the Type-2 device rule of Sec. II-A).
func opTolerated(a *assay.Assay, opID string) map[assay.FluidType]bool {
	tol := map[assay.FluidType]bool{}
	op := a.Op(opID)
	if op == nil {
		return tol
	}
	tol[op.Output] = true
	for _, r := range op.Reagents {
		tol[r] = true
	}
	for _, p := range a.Preds(opID) {
		if po := a.Op(p); po != nil {
			tol[po.Output] = true
		}
	}
	return tol
}

func appendFluid(s []assay.FluidType, f assay.FluidType) []assay.FluidType {
	for _, x := range s {
		if x == f {
			return s
		}
	}
	return append(s, f)
}

func appendStr(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// Verify returns an error describing the first outstanding contamination
// requirement of the schedule, or nil if execution is contamination-free.
// It is the correctness oracle for wash optimizers.
func Verify(s *schedule.Schedule) error {
	return verify(Analyze(s))
}

// VerifyContext is Verify under a context with the AnalyzeContext
// cancellation contract: a done context aborts the verification with
// ErrBudgetExceeded instead of certifying or refuting the schedule.
func VerifyContext(ctx context.Context, s *schedule.Schedule) error {
	return verify(AnalyzeContext(ctx, s))
}

func verify(an *Analysis, err error) error {
	if err != nil {
		return err
	}
	if len(an.Requirements) > 0 {
		r := an.Requirements[0]
		return fmt.Errorf("contam: cell %v still carries %v when %s starts at %d (contaminated at %d by %v)",
			r.Cell, r.Fluids, r.BeforeTask, r.Deadline, r.ReadyAt, r.CulpritTasks)
	}
	return nil
}
