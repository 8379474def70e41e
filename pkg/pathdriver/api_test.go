package pathdriver

import (
	"context"
	"errors"
	"testing"
	"time"
)

func motivatingRequest(t *testing.T, method Method, opts Options) Request {
	t.Helper()
	a, _, err := MotivatingExample()
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Assay:   NewAssayDocument(a, SynthConfig{}),
		Method:  method,
		Options: opts,
	}
}

func TestSolvePDW(t *testing.T) {
	resp, err := Solve(context.Background(), motivatingRequest(t, "", Options{Heuristic: true}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != MethodPDW {
		t.Fatalf("default method = %q, want pdw", resp.Method)
	}
	if err := VerifyClean(resp.Schedule); err != nil {
		t.Fatal(err)
	}
	if resp.Washes == 0 || resp.Metrics.NWash != resp.Washes {
		t.Fatalf("washes=%d metrics.NWash=%d", resp.Washes, resp.Metrics.NWash)
	}
	if resp.Stats == nil || len(resp.Stats.Phases) == 0 {
		t.Fatal("no solve telemetry on response")
	}
	if resp.Reference == nil || resp.Reference.Makespan() == 0 {
		t.Fatal("no reference schedule")
	}
}

func TestSolveDAWO(t *testing.T) {
	resp, err := Solve(context.Background(), motivatingRequest(t, MethodDAWO, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != MethodDAWO {
		t.Fatalf("method = %q", resp.Method)
	}
	if err := VerifyClean(resp.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestSolveBudgetDegrades(t *testing.T) {
	// A budget too small for the exact ILPs must still return a clean
	// schedule, flagged canceled — the service's graceful-degradation
	// contract rides on this.
	resp, err := Solve(context.Background(), motivatingRequest(t, MethodPDW, Options{
		Budget: Budget{Total: 50 * time.Millisecond},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClean(resp.Schedule); err != nil {
		t.Fatal(err)
	}
	if !resp.Stats.Canceled {
		t.Log("note: solve finished inside the budget; Canceled unset")
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := Solve(context.Background(), Request{}); err == nil {
		t.Fatal("empty request must fail")
	}
	req := motivatingRequest(t, "teleport", Options{Heuristic: true})
	if _, err := Solve(context.Background(), req); !errors.Is(err, ErrInvalidAssay) {
		t.Fatalf("unknown method: err = %v, want ErrInvalidAssay", err)
	}
}

func TestSolveCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, motivatingRequest(t, MethodPDW, Options{})); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestOptionsLowering pins the field mapping from the shared Options to
// the per-optimizer structs.
func TestOptionsLowering(t *testing.T) {
	o := Options{
		Budget:      Budget{Total: time.Second, PerPath: 2 * time.Second, Window: 3 * time.Second},
		Weights:     Weights{Alpha: 0.1, Beta: 0.2, Gamma: 0.7},
		MergeRadius: 5, MaxRounds: 7, Heuristic: true,
		DisableNecessity: true, DisableMerge: true, DisableIntegration: true,
	}
	p := o.pdwOptions()
	if p.Alpha != 0.1 || p.Beta != 0.2 || p.Gamma != 0.7 {
		t.Fatalf("weights not lowered: %+v", p)
	}
	if p.Budget != o.Budget || p.MergeRadius != 5 || p.MaxRounds != 7 {
		t.Fatalf("budget/knobs not lowered: %+v", p)
	}
	if !p.HeuristicPaths || !p.HeuristicWindows {
		t.Fatal("Heuristic must select both heuristic paths and windows")
	}
	if !p.DisableNecessity || !p.DisableMerge || !p.DisableIntegration {
		t.Fatal("ablation switches not lowered")
	}
	d := o.dawoOptions()
	if d.Budget != o.Budget || d.MaxRounds != 7 {
		t.Fatalf("DAWO lowering wrong: %+v", d)
	}
}
