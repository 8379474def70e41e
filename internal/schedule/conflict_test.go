package schedule_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
)

type namedSchedule struct {
	name string
	s    *schedule.Schedule
}

// poolSchedules are the synthesized and heuristic-PDW schedules of Table
// II, the benchmark's exact-small and heuristic-scale pools and a
// 30-instance default sweep. The tests that mutate one restore it.
var poolSchedules = sync.OnceValues(func() ([]namedSchedule, error) {
	ctx := context.Background()
	set := benchmarks.All()
	for _, cfg := range []corpus.SweepConfig{
		{Seed: 5, N: 8, MinOps: 6, MaxOps: 8},
		{Seed: 3, N: 5, MinOps: 24, MaxOps: 40, Level: corpus.LevelStructural},
		{Seed: 1, N: 30},
	} {
		more, err := corpus.GenerateSweep(ctx, cfg)
		if err != nil {
			return nil, err
		}
		set = append(set, more...)
	}
	var out []namedSchedule
	for _, b := range set {
		syn, err := b.SynthesizeContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		res, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{HeuristicPaths: true, HeuristicWindows: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		out = append(out, namedSchedule{b.Name + " synthesis", syn.Schedule}, namedSchedule{b.Name + " heuristic PDW", res.Schedule})
	}
	return out, nil
})

func pool(t *testing.T) []namedSchedule {
	t.Helper()
	out, err := poolSchedules()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConflictCapableMatchesCellMaps checks the held-cells rule against
// the pairwise rule on every ordered pair of active tasks of the pool
// schedules: two tasks hold a common cell exactly when the pairwise
// rule says they contend. An inactive task holds no cell, and an
// operation without a device cannot be indexed.
func TestConflictCapableMatchesCellMaps(t *testing.T) {
	for _, ns := range pool(t) {
		tasks := ns.s.Tasks()
		x, err := schedule.IndexCells(ns.s.Chip, tasks)
		if err != nil {
			t.Fatalf("%s: %v", ns.name, err)
		}
		n := len(tasks)
		share := make([]bool, n*n)
		for j := range tasks {
			for _, c := range x.Held(j) {
				for _, i := range x.Holders(c) {
					share[int(i)*n+j] = true
				}
			}
		}
		conflicts := 0
		for i, a := range tasks {
			if !a.Active() {
				if len(x.Held(i)) > 0 {
					t.Fatalf("%s: inactive %s holds %d cells", ns.name, a.ID, len(x.Held(i)))
				}
				continue
			}
			for j, b := range tasks {
				if i == j || !b.Active() {
					continue
				}
				got, want := share[i*n+j], refConflictCapable(ns.s.Chip, a, b)
				if got != want {
					t.Fatalf("%s: %s and %s hold a common cell: %v, pairwise rule %v", ns.name, a.ID, b.ID, got, want)
				}
				if got {
					conflicts++
				}
			}
		}
		if conflicts == 0 {
			t.Fatalf("%s: no conflicting pair among %d tasks", ns.name, n)
		}
		noDevice := &schedule.Task{ID: "no-device", Kind: schedule.Operation}
		if _, err := schedule.IndexCells(ns.s.Chip, append(slices.Clone(tasks), noDevice)); err == nil {
			t.Fatalf("%s: an operation without a device was indexed", ns.name)
		}
	}
}

// TestPlaceMatchesAllPairs places each pool schedule's tasks, in order,
// with Place and with the all-pairs reference, and requires the same
// start for every task. Ready times are the tasks' own starts, half of
// them and zero, which forces bumps; in a fourth variant the first half
// of the tasks is added before the placer exists and the rest start
// ready at zero. Inactive tasks are added outside Place, as Greedy adds
// integrated removals.
func TestPlaceMatchesAllPairs(t *testing.T) {
	bumps := 0
	for _, ns := range pool(t) {
		tasks := ns.s.Tasks()
		for _, v := range []struct {
			name   string
			before int
			ready  func(u *schedule.Task) int
		}{
			{"own starts", 0, func(u *schedule.Task) int { return u.Start }},
			{"half starts", 0, func(u *schedule.Task) int { return u.Start / 2 }},
			{"ready at 0", 0, func(*schedule.Task) int { return 0 }},
			{"half added first", len(tasks) / 2, func(*schedule.Task) int { return 0 }},
		} {
			got := schedule.New(ns.s.Chip, ns.s.Assay)
			want := schedule.New(ns.s.Chip, ns.s.Assay)
			for _, u := range tasks[:v.before] {
				a, b := *u, *u
				got.MustAdd(&a)
				want.MustAdd(&b)
			}
			pl := schedule.NewPlacer(got)
			for _, u := range tasks[v.before:] {
				a, b := *u, *u
				if !u.Active() {
					got.MustAdd(&a)
					want.MustAdd(&b)
					continue
				}
				ready := v.ready(u)
				gs, gerr := pl.Place(&a, ready, u.Duration())
				ws, werr := refPlace(want, &b, ready, u.Duration())
				if gs != ws || (gerr == nil) != (werr == nil) {
					t.Fatalf("%s, %s: %s placed at %d (%v), reference %d (%v)", ns.name, v.name, u.ID, gs, gerr, ws, werr)
				}
				if gs != ready {
					bumps++
				}
			}
		}
	}
	if bumps == 0 {
		t.Fatal("no placement was bumped")
	}
}

// TestValidateExclusivityMatchesAllPairs requires the cell-index check
// and the all-pairs reference to give the same verdict on each pool
// schedule and on its mutations: a task shifted onto a task it
// conflicts with (two operations on one device, two paths on a shared
// cell, a path through a busy device, an operation under a flush), a
// zero-length task inside such a task's window and at its start, an
// integrated removal shifted onto one, and a task shifted to a free
// slot. Where a mutation makes exactly one pair conflict, both name the
// same violation.
func TestValidateExclusivityMatchesAllPairs(t *testing.T) {
	const perClass = 6
	mutations := 0
	for _, ns := range pool(t) {
		s := ns.s
		if err := s.ValidateExclusivity(); err != nil {
			t.Fatalf("%s: %v", ns.name, err)
		}
		if err := refValidateExclusivity(s); err != nil {
			t.Fatalf("%s: reference: %v", ns.name, err)
		}
		tasks := s.Tasks()
		// Pairs {a, b} where b is shifted onto a, by class: an op onto
		// an op, a path onto an op, an op onto a path, a path onto a
		// path, and a removal onto any task.
		var classes [5][][2]*schedule.Task
		for _, a := range tasks {
			for _, b := range tasks {
				if a == b || !a.Active() || !b.Active() || !refConflictCapable(s.Chip, a, b) {
					continue
				}
				k := 0
				if b.Kind.Fluidic() {
					k++
				}
				if a.Kind.Fluidic() {
					k += 2
				}
				classes[k] = append(classes[k], [2]*schedule.Task{a, b})
				if b.Kind == schedule.Removal {
					classes[4] = append(classes[4], [2]*schedule.Task{a, b})
				}
			}
		}
		check := func(b *schedule.Task, what string) {
			t.Helper()
			mutations++
			got, want := s.ValidateExclusivity(), refValidateExclusivity(s)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s, %s %s: %v, reference %v", ns.name, b.ID, what, got, want)
			}
			if got != nil && conflictsWith(s, b) == 1 && got.Error() != want.Error() {
				t.Fatalf("%s, %s %s: %v, reference %v", ns.name, b.ID, what, got, want)
			}
		}
		mk := s.Makespan()
		for k, pairs := range classes {
			picks := min(perClass, len(pairs))
			for m := range picks {
				a, b := pairs[m*len(pairs)/picks][0], pairs[m*len(pairs)/picks][1]
				start, end := b.Start, b.End
				d := b.Duration()
				if k == 4 {
					b.Integrated = true
					b.Start, b.End = a.Start, a.Start+d
					check(b, "integrated onto "+a.ID)
					b.Integrated = false
					b.Start, b.End = start, end
					continue
				}
				b.Start, b.End = a.Start, a.Start+d
				check(b, "onto "+a.ID)
				b.Start, b.End = a.Start+1, a.Start+1
				check(b, "zero-length inside "+a.ID)
				b.Start, b.End = a.Start, a.Start
				check(b, "zero-length at the start of "+a.ID)
				b.Start, b.End = mk+1, mk+1+d
				check(b, "to a free slot")
				b.Start, b.End = start, end
			}
		}
	}
	t.Logf("%d mutations", mutations)
}

// conflictsWith counts the active tasks that hold a resource b holds
// during b's window, by the pairwise rule.
func conflictsWith(s *schedule.Schedule, b *schedule.Task) int {
	n := 0
	for _, u := range s.Tasks() {
		if u != b && u.Active() && b.Active() && u.Overlaps(b) && refConflictCapable(s.Chip, u, b) {
			n++
		}
	}
	return n
}
