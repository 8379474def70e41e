package replan

import (
	"fmt"
	"slices"

	"pathdriverwash/internal/schedule"
)

// CheckClosure compares the plan's Order with the reference sort, its
// bitset closure with the map-based reference pair by pair, and its
// FreePairs with the pairs the reference closure leaves free.
func CheckClosure(p *Plan) error {
	if err := checkOrder(p); err != nil {
		return err
	}
	ref := p.reachabilityMap()
	got := p.reachability()
	for i := range p.Tasks {
		for j := range p.Tasks {
			if got.has(i, j) != ref[i][j] {
				return fmt.Errorf("%s reaches %s: bitset %v, map %v",
					p.Tasks[i].ID, p.Tasks[j].ID, got.has(i, j), ref[i][j])
			}
		}
	}
	want := p.refFreePairs(func(i, j int) bool { return ref[i][j] })
	if free := p.FreePairs(); !slices.Equal(free, want) {
		return fmt.Errorf("free pairs %v, map closure gives %v", free, want)
	}
	return nil
}

// CheckAllPairs builds the plan of base and washes with Build and with
// the all-pairs reference and compares them: the same error, Build's
// Order equal to the reference sort of its edges, every Build edge
// among the reference's, the same closure, the same free pairs in the
// same order, and the same greedy schedule.
func CheckAllPairs(base *schedule.Schedule, washes []WashSpec) error {
	got, err := Build(base, washes)
	want, wantFree, werr := buildAllPairs(base, washes)
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("Build error %v, reference %v", err, werr)
	}
	if err != nil {
		return nil
	}
	if err := checkOrder(got); err != nil {
		return err
	}
	ref := map[[2]int]bool{}
	for _, e := range want.Edges {
		ref[e] = true
	}
	for _, e := range got.Edges {
		if !ref[e] {
			return fmt.Errorf("edge %s->%s is not a reference edge", got.Tasks[e[0]].ID, got.Tasks[e[1]].ID)
		}
	}
	gc, wc := got.reachability(), want.reachability()
	for i := range got.Tasks {
		for j := range got.Tasks {
			if gc.has(i, j) != wc.has(i, j) {
				return fmt.Errorf("%s reaches %s: %v, reference %v", got.Tasks[i].ID, got.Tasks[j].ID, gc.has(i, j), wc.has(i, j))
			}
		}
	}
	if free := got.FreePairs(); !slices.Equal(free, wantFree) {
		return fmt.Errorf("free pairs %v, reference %v", free, wantFree)
	}
	gs, err := got.Greedy()
	ws, werr := want.Greedy()
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("Greedy error %v, reference %v", err, werr)
	}
	if err != nil {
		return nil
	}
	return sameTimes(gs, ws)
}

// sameTimes fails unless the schedules hold the same tasks in the same
// order with the same windows.
func sameTimes(got, want *schedule.Schedule) error {
	gt, wt := got.Tasks(), want.Tasks()
	if len(gt) != len(wt) {
		return fmt.Errorf("%d tasks, reference %d", len(gt), len(wt))
	}
	for k := range gt {
		a, b := gt[k], wt[k]
		if a.ID != b.ID || a.Start != b.Start || a.End != b.End {
			return fmt.Errorf("task %d is %v, reference %v", k, a, b)
		}
	}
	return nil
}
