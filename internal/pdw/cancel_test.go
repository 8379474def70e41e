package pdw_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
)

// canceledSchedule runs exact PDW on the overrun-diamond corpus draw of
// seed 9 and cancels it right after its first wash cover is built, so
// the cancel lands mid-solve: its wash insertion takes tens of
// milliseconds and the exact window search after it about 9 s (Table
// II's exact PDW runs finish in tens of ms).
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	canceledAt := make(chan time.Time, 1)
	defer pdw.SetOnCover(func() {
		once.Do(func() {
			canceledAt <- time.Now()
			cancel()
		})
	})()
	res, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{
		Budget: solve.Budget{PerPath: 10 * time.Second, Window: time.Minute},
	})
	if err != nil {
		t.Fatalf("cancellation must degrade, not error: %v", err)
	}
	select {
	case t0 := <-canceledAt:
		if lat := time.Since(t0); lat > 100*time.Millisecond {
			t.Fatalf("returned %v after cancel, want <100ms", lat)
		}
	default:
		t.Fatal("PDW finished without building a wash cover")
	}
	return res
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
