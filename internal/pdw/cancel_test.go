package pdw_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
)

// canceledSchedule runs exact PDW on the overrun-diamond corpus draw of
// seed 9 and cancels it as soon as the live progress view names a
// wash-path search, so the cancel lands mid-solve: its wash insertion
// takes tens of milliseconds and the exact window search after it
// about 9 s (Table II's exact PDW runs finish in tens of ms).
func canceledSchedule(t *testing.T) *pdw.Result {
	t.Helper()
	b, err := corpus.GenerateContext(context.Background(), corpus.Params{Name: "overrun-diamond", Seed: 9, Ops: 10,
		Shape: corpus.Diamond, Density: 1, ReagentRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatal(err)
	}

	prog := solve.NewProgress()
	ctx, cancel := context.WithCancel(solve.WithProgress(context.Background(), prog))
	defer cancel()
	done := make(chan *pdw.Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{
			Budget: solve.Budget{PerPath: 10 * time.Second, Window: time.Minute},
		})
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()

	for !strings.HasPrefix(prog.Snapshot().Model, "wash-path[") {
		select {
		case err := <-errc:
			t.Fatalf("PDW failed before its first wash-path search: %v", err)
		case <-done:
			t.Fatal("PDW finished before a wash-path search showed on the progress view")
		case <-time.After(100 * time.Microsecond):
		}
	}
	t0 := time.Now()
	cancel()
	select {
	case err := <-errc:
		t.Fatalf("cancellation must degrade, not error: %v", err)
	case res := <-done:
		if lat := time.Since(t0); lat > 100*time.Millisecond {
			t.Fatalf("returned %v after cancel, want <100ms", lat)
		}
		return res
	}
	return nil
}

func TestOptimizeContextCancelReturnsIncumbentFast(t *testing.T) {
	res := canceledSchedule(t)
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("degraded schedule invalid: %v", err)
	}
	if err := contam.Verify(res.Schedule); err != nil {
		t.Fatalf("degraded schedule not clean: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("no stats recorded")
	}
	if !res.Stats.Canceled {
		t.Error("Stats.Canceled not set on a canceled run")
	}
}
