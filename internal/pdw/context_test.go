package pdw

import (
	"context"
	"testing"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/solve"
)

func TestBudgetTotalDegradesGracefully(t *testing.T) {
	res := fixture(t)
	out, err := OptimizeContext(context.Background(), res.Schedule, Options{
		Budget: solve.Budget{Total: time.Nanosecond},
	})
	if err != nil {
		t.Fatalf("expired budget must degrade, not error: %v", err)
	}
	if err := contam.Verify(out.Schedule); err != nil {
		t.Fatalf("degraded schedule not clean: %v", err)
	}
	if !out.Stats.Canceled {
		t.Error("Stats.Canceled not set after budget expiry")
	}
}

func TestStatsRecorded(t *testing.T) {
	res := fixture(t)
	out, err := Optimize(res.Schedule, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Stats
	if s == nil {
		t.Fatal("no stats")
	}
	if len(s.Phases) < 3 {
		t.Fatalf("phases = %+v, want wash-insertion, window-milp, verify", s.Phases)
	}
	if len(s.MILPs) == 0 {
		t.Fatal("no MILP solves recorded on an ILP run")
	}
	// The exact searches report nodes; none of them runs an LP, so
	// every record's simplex_iters wire field reads 0.
	if s.Nodes() == 0 {
		t.Fatal("want search nodes")
	}
	for _, m := range s.MILPs {
		if m.SimplexIters != 0 {
			t.Fatalf("%s: simplex_iters = %d, want 0", m.Label, m.SimplexIters)
		}
	}
	if len(s.Skips) == 0 {
		t.Fatal("necessity skip counts missing")
	}
	if s.Canceled {
		t.Fatal("uncanceled run marked canceled")
	}
}
