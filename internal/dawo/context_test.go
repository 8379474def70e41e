package dawo

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/solve"
)

func TestOptimizeContextCanceledStillClean(t *testing.T) {
	res := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := OptimizeContext(ctx, res.Schedule, Options{})
	if err != nil {
		t.Fatalf("canceled ctx must degrade, not error: %v", err)
	}
	if err := contam.Verify(out.Schedule); err != nil {
		t.Fatalf("schedule not clean: %v", err)
	}
	if out.Stats == nil || !out.Stats.Canceled {
		t.Error("Stats.Canceled not set on a canceled run")
	}
}

func TestBudgetTotalDegradesNotErrors(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{
		Budget: solve.Budget{Total: time.Nanosecond},
	})
	if err != nil {
		t.Fatalf("expired Budget.Total must degrade, not error: %v", err)
	}
	if err := contam.Verify(out.Schedule); err != nil {
		t.Fatalf("schedule not clean: %v", err)
	}
}

func TestStatsPhasesAndSkips(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil || len(out.Stats.Phases) == 0 {
		t.Fatal("no phase stats recorded")
	}
	if len(out.Stats.Skips) == 0 {
		t.Fatal("no skip counts recorded")
	}
}
