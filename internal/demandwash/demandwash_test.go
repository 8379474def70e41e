package demandwash

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

func fixture(t *testing.T) *synth.Result {
	t.Helper()
	a := assay.New("dw-fx")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1", "r2"}})
	a.MustAddOp(&assay.Operation{ID: "o2", Kind: assay.Mix, Duration: 2, Output: "f2",
		Reagents: []assay.FluidType{"r3"}})
	a.MustAddOp(&assay.Operation{ID: "o3", Kind: assay.Mix, Duration: 2, Output: "f3",
		Reagents: []assay.FluidType{"r4"}})
	a.MustAddEdge("o1", "o2")
	a.MustAddEdge("o2", "o3")
	res, err := synth.Synthesize(a, synth.Config{
		Devices: []synth.DeviceSpec{{Kind: grid.Mixer, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReachesCleanFixpoint(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Schedule.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	an, err := contam.AnalyzeWithPolicy(out.Schedule, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Requirements) != 0 {
		t.Fatalf("outstanding: %v", an.Requirements)
	}
}

func TestWashesSitImmediatelyBeforeUsers(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Washes) == 0 {
		t.Skip("fixture produced no washes")
	}
	// The defining property of demand-driven wash: each wash ends at (or
	// nearly at) its earliest user's start — it was postponed maximally.
	for _, w := range out.Washes {
		wt := out.Schedule.Task(w.ID)
		earliest := 1 << 30
		for _, u := range w.Before {
			if ut := out.Schedule.Task(u); ut != nil && ut.Start < earliest {
				earliest = ut.Start
			}
		}
		if earliest == 1<<30 {
			continue
		}
		if earliest-wt.End > 2 {
			t.Errorf("wash %s ends %d but user starts %d: not postponed", w.ID, wt.End, earliest)
		}
	}
}

func TestSlowerThanPDW(t *testing.T) {
	res := fixture(t)
	dd, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := pdw.Optimize(res.Schedule, pdw.Options{
		Budget: solve.Budget{PerPath: time.Second, Window: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's critique: postponement serializes washes with reuse,
	// delaying completion versus PDW's optimized windows.
	if dd.Schedule.Makespan() < pd.Schedule.Makespan() {
		t.Errorf("demand-driven (%d) beat PDW (%d): postponement critique not reproduced",
			dd.Schedule.Makespan(), pd.Schedule.Makespan())
	}
}

func TestComparableWashCountToDAWO(t *testing.T) {
	res := fixture(t)
	dd, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dw, err := dawo.OptimizeContext(context.Background(), res.Schedule, dawo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same conservative judgement, same path heuristic: wash counts are
	// in the same ballpark (the difference is timing, not necessity).
	if len(dd.Washes) > 2*len(dw.Washes)+2 {
		t.Errorf("demand-driven washes %d wildly above DAWO %d",
			len(dd.Washes), len(dw.Washes))
	}
	m := dd.Schedule.ComputeMetrics(res.Schedule)
	if m.NWash != len(dd.Washes) {
		t.Errorf("metrics N=%d, washes %d", m.NWash, len(dd.Washes))
	}
}

func TestCleanAssayUntouched(t *testing.T) {
	a := assay.New("clean")
	a.MustAddOp(&assay.Operation{ID: "o1", Kind: assay.Mix, Duration: 2, Output: "f1",
		Reagents: []assay.FluidType{"r1"}})
	res, err := synth.Synthesize(a, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Washes) != 0 || out.Schedule.Makespan() != res.Schedule.Makespan() {
		t.Fatal("clean assay must pass through unchanged")
	}
}

func TestPostponedCulpritsNeverIncludeUser(t *testing.T) {
	res := fixture(t)
	g := contam.Group{
		Before:   []string{"op-o2"},
		Culprits: []string{"tr-o1-o2"},
	}
	out := postponedCulprits(res.Schedule, g)
	for _, c := range out {
		if c == "op-o2" {
			t.Fatal("user listed as its own culprit")
		}
	}
	// o2's transport and removal must appear (they gate the user).
	found := map[string]bool{}
	for _, c := range out {
		found[c] = true
	}
	if !found["tr-o1-o2"] {
		t.Error("original culprit lost")
	}
}
