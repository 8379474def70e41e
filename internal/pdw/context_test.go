package pdw

import (
	"context"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/solve"
)

// pcrSchedule runs exact PDW on the PCR benchmark and cancels it as
// soon as the live progress view names a wash-path ILP, so the cancel
// lands mid-solve however fast the later phases are (exact PDW on PCR
// finishes in a few hundred milliseconds).
func pcrSchedule(t *testing.T) *Result {
	t.Helper()
	b, err := benchmarks.ByName("PCR")
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
	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := OptimizeContext(ctx, syn.Schedule, Options{
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
			t.Fatalf("PDW failed before its first wash-path ILP: %v", err)
		case <-done:
			t.Fatal("PDW finished before a wash-path ILP showed on the progress view")
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
	res := pcrSchedule(t)
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
	if s.Nodes() == 0 || s.SimplexIters() == 0 {
		t.Fatalf("zero solve work recorded: nodes=%d iters=%d", s.Nodes(), s.SimplexIters())
	}
	if len(s.Skips) == 0 {
		t.Fatal("necessity skip counts missing")
	}
	if s.Canceled {
		t.Fatal("uncanceled run marked canceled")
	}
}
