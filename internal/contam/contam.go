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
	"context"
	"fmt"
	"sort"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/geom"
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

// use is a sensitive access to a cell.
type use struct {
	start    int
	task     *schedule.Task
	tolerate map[assay.FluidType]bool // nil means sensitive to everything foreign
}

// cellTask keys a (cell, task ID) pair: one requirement per use, one
// demand per contamination event.
type cellTask struct {
	cell geom.Point
	task string
}

// Policy selects how conservatively contamination is judged. The zero
// value is PDW's necessity analysis (Sec. II-A). The DAWO baseline and
// the ablation benches use the conservative switches.
type Policy struct {
	// FullPathUses makes a transport sensitive on its entire flow path
	// (the literal Eq. 9 reading) instead of only its plug region.
	FullPathUses bool
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

func analyzeWithPolicy(cp *solve.Checkpoint, s *schedule.Schedule, pol Policy) (*Analysis, error) {
	an := &Analysis{Skips: map[SkipReason]int{}}

	events := map[geom.Point][]Event{} // contaminations per cell
	washes := map[geom.Point][]int{}   // wash-completion times per cell
	uses := map[geom.Point][]use{}     // sensitive uses per cell
	wasteUse := map[geom.Point][]int{} // waste-carrier use starts (Type 3 stats)

	for _, t := range s.Tasks() {
		if err := cp.Check(); err != nil {
			return nil, cancelErr(err)
		}
		if !t.Active() {
			continue
		}
		switch t.Kind {
		case schedule.Wash:
			for _, c := range t.Path.Cells {
				washes[c] = append(washes[c], t.End)
			}
		default:
			for _, c := range t.ContamCells {
				ev := Event{Cell: c, Fluid: t.Fluid, At: t.End, TaskID: t.ID}
				events[c] = append(events[c], ev)
				an.Events = append(an.Events, ev)
			}
		}
		switch t.Kind {
		case schedule.Transport:
			cells := t.SensitiveCells
			if pol.FullPathUses {
				cells = t.Path.Cells
			}
			if len(cells) > 0 {
				// Residue of the destination op's other inputs is
				// harmless: those fluids are about to be mixed anyway.
				tol := opTolerated(s.Assay, t.EdgeTo)
				tol[t.Fluid] = true
				if pol.IgnoreFluidTypes {
					tol = map[assay.FluidType]bool{}
				}
				for _, c := range cells {
					uses[c] = append(uses[c], use{start: t.Start, task: t, tolerate: tol})
				}
			}
		case schedule.Operation:
			tol := opTolerated(s.Assay, t.OpID)
			if pol.IgnoreFluidTypes {
				tol = map[assay.FluidType]bool{}
			}
			for _, c := range t.SensitiveCells {
				uses[c] = append(uses[c], use{start: t.Start, task: t, tolerate: tol})
			}
		case schedule.Removal, schedule.WasteDisposal:
			for _, c := range t.Path.Cells {
				wasteUse[c] = append(wasteUse[c], t.Start)
			}
		}
	}

	for c := range events {
		sort.Slice(events[c], func(i, j int) bool { return events[c][i].At < events[c][j].At })
	}
	for c := range uses {
		sort.Slice(uses[c], func(i, j int) bool { return uses[c][i].start < uses[c][j].start })
	}
	for c := range washes {
		sort.Ints(washes[c])
	}

	// Requirements: for each sensitive use, the foreign residue present
	// when it starts (deposited after the last wash) must be washed away.
	seen := map[cellTask]bool{}
	for cell, ulist := range uses {
		for _, u := range ulist {
			// The (cell, use) x events product is the quadratic heart of
			// the analysis; the checkpoint bounds a deadline to one
			// stride of it.
			if err := cp.Check(); err != nil {
				return nil, cancelErr(err)
			}
			lastWash := -1
			for _, w := range washes[cell] {
				if w <= u.start && w > lastWash {
					lastWash = w
				}
			}
			var fluids []assay.FluidType
			var culprits []string
			ready := -1
			for _, ev := range events[cell] {
				if ev.At > u.start || ev.At <= lastWash {
					continue
				}
				if ev.TaskID == u.task.ID {
					continue // a task does not contaminate itself
				}
				if u.tolerate[ev.Fluid] {
					continue
				}
				fluids = appendFluid(fluids, ev.Fluid)
				culprits = appendStr(culprits, ev.TaskID)
				if ev.At > ready {
					ready = ev.At
				}
			}
			if len(fluids) == 0 {
				continue
			}
			key := cellTask{cell, u.task.ID}
			if seen[key] {
				continue
			}
			seen[key] = true
			an.Requirements = append(an.Requirements, Requirement{
				Cell: cell, Fluids: fluids, ReadyAt: ready, Deadline: u.start,
				CulpritTasks: culprits, BeforeTask: u.task.ID,
			})
		}
	}
	sort.Slice(an.Requirements, func(i, j int) bool {
		a, b := an.Requirements[i], an.Requirements[j]
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		if a.Cell.Y != b.Cell.Y {
			return a.Cell.Y < b.Cell.Y
		}
		if a.Cell.X != b.Cell.X {
			return a.Cell.X < b.Cell.X
		}
		return a.BeforeTask < b.BeforeTask
	})
	sort.Slice(an.Events, func(i, j int) bool {
		a, b := an.Events[i], an.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.TaskID != b.TaskID {
			return a.TaskID < b.TaskID
		}
		if a.Cell.Y != b.Cell.Y {
			return a.Cell.Y < b.Cell.Y
		}
		return a.Cell.X < b.Cell.X
	})

	// Skip statistics per contamination event (Sec. II-A's taxonomy).
	demanded := map[cellTask]bool{}
	for _, r := range an.Requirements {
		for _, t := range r.CulpritTasks {
			demanded[cellTask{r.Cell, t}] = true
		}
	}
	for _, ev := range an.Events {
		if err := cp.Check(); err != nil {
			return nil, cancelErr(err)
		}
		if demanded[cellTask{ev.Cell, ev.TaskID}] {
			an.Skips[NoSkip]++
			continue
		}
		an.Skips[classifySkip(ev, uses[ev.Cell], wasteUse[ev.Cell])]++
	}
	return an, nil
}

// classifySkip explains why the event produced no requirement.
func classifySkip(ev Event, ulist []use, waste []int) SkipReason {
	sensLater := false
	for _, u := range ulist {
		if u.start >= ev.At && u.task.ID != ev.TaskID {
			sensLater = true
			break
		}
	}
	if sensLater {
		return Type2 // later sensitive uses exist, all tolerated the fluid
	}
	for _, w := range waste {
		if w >= ev.At {
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
