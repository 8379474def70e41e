package corpus

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// Reagent-dense corpus draws whose uncapped exact PDW run takes at
// least 5 s, so a 2 s deadline always lands mid-solve: pipeline seed 57
// about 5.3-5.6 s and diamond seed 9 about 8.7-9.7 s on a 2-core x86
// host, nearly all of it the exact window search (their wash paths
// take a few ms). An instance that stops taking 5 s is replaced by the
// next seed of the same Params that does, never chosen by its
// post-cancellation tail.
var overrunInstances = []Params{
	{Name: "overrun-pipeline", Seed: 57, Ops: 8, Shape: Pipeline, Density: 0.5, ReagentRate: 8},
	{Name: "overrun-diamond", Seed: 9, Ops: 10, Shape: Diamond, Density: 1, ReagentRate: 8},
}

// synthesize builds the wash-free base schedule without any deadline.
func synthesize(t *testing.T, p Params) *schedule.Schedule {
	t.Helper()
	b, err := GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatalf("GenerateContext(context.Background(), %s): %v", p.Name, err)
	}
	syn, err := b.SynthesizeContext(context.Background())
	if err != nil {
		t.Fatalf("Synthesize(%s): %v", p.Name, err)
	}
	return syn.Schedule
}

// TestDeadlineOverrunBounded is the regression test for the bounded-
// overrun cancellation contract (DESIGN.md "Cancellation granularity
// contract"): on reagent-dense instances whose solves used to blow a
// context deadline by 30+ seconds, every solver must now return within
// a small bound of the deadline, and must degrade — not corrupt — its
// result. The bounds encode the two-part overrun model: checkpoint
// granularity (stride x the most expensive polled unit) plus the
// cheap-mode completion tail of whatever fixpoint must still finish.
// `make overrun` runs this test under -race; raceFactor stretches the
// bounds accordingly.
func TestDeadlineOverrunBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("deadline-overrun regression needs multi-second solves")
	}

	// PDW, exact options: the deadline lands mid wash-insertion or mid
	// window search; the fixpoint still completes in cheap mode and the
	// returned schedule is clean, valid, and flagged Canceled. The
	// pdw_deadline_overrun_seconds histogram must have recorded the
	// overrun: it is the production-side evidence of this contract.
	t.Run("pdw", func(t *testing.T) {
		const deadline = 2 * time.Second
		bound := 150 * time.Millisecond * raceFactor

		obs.Enable()
		defer obs.Disable()
		hist := obs.Default().Histogram("pdw_deadline_overrun_seconds",
			[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})

		for _, p := range overrunInstances {
			base := synthesize(t, p)
			before := hist.Count()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			res, err := pdw.OptimizeContext(ctx, base, pdw.Options{})
			over := time.Since(start) - deadline
			cancel()
			if err != nil {
				t.Fatalf("%s: pdw errored instead of degrading: %v", p.Name, err)
			}
			if !res.Stats.Canceled {
				t.Errorf("%s: finished in %v under a %v deadline — no longer a deadline-busting instance",
					p.Name, deadline+over, deadline)
			}
			if over > bound {
				t.Errorf("%s: pdw overran its deadline by %v (bound %v)", p.Name, over, bound)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Errorf("%s: canceled pdw returned an invalid schedule: %v", p.Name, err)
			}
			if err := contam.Verify(res.Schedule); err != nil {
				t.Errorf("%s: canceled pdw returned a contaminated schedule: %v", p.Name, err)
			}
			if hist.Count() == before {
				t.Errorf("%s: overrun not recorded in pdw_deadline_overrun_seconds", p.Name)
			}
		}
	})

	// DAWO never aborts — an unconverged schedule is still contaminated,
	// so there is no partial incumbent to return. The contract is
	// instead that the full fixpoint, started with its deadline ALREADY
	// expired, completes in cheap mode within the tail bound.
	t.Run("dawo-completion-tail", func(t *testing.T) {
		bound := 300 * time.Millisecond * raceFactor
		for _, p := range overrunInstances {
			base := synthesize(t, p)
			ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
			<-ctx.Done()
			start := time.Now()
			res, err := dawo.OptimizeContext(ctx, base, dawo.Options{})
			wall := time.Since(start)
			cancel()
			if err != nil {
				t.Fatalf("%s: dawo errored instead of completing: %v", p.Name, err)
			}
			if !res.Stats.Canceled {
				t.Errorf("%s: dawo under an expired deadline did not mark Canceled", p.Name)
			}
			if wall > bound {
				t.Errorf("%s: dawo completion tail %v exceeds bound %v", p.Name, wall, bound)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Errorf("%s: canceled dawo returned an invalid schedule: %v", p.Name, err)
			}
			if err := contam.Verify(res.Schedule); err != nil {
				t.Errorf("%s: canceled dawo returned a contaminated schedule: %v", p.Name, err)
			}
		}
	})

	// Synthesis has no degraded mode — a half-built schedule is useless
	// — so its contract is a prompt ErrBudgetExceeded abort. A dense
	// 400-op layered DAG keeps the scheduler busy for whole seconds;
	// the 100 ms deadline must stop it almost immediately.
	t.Run("synth-abort", func(t *testing.T) {
		const deadline = 100 * time.Millisecond
		bound := 100 * time.Millisecond * raceFactor
		p := Params{Name: "overrun-synth", Seed: 23, Ops: 400, Shape: Layered, Density: 1, ReagentRate: 2}
		b, err := GenerateContext(context.Background(), p)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		start := time.Now()
		_, err = b.SynthesizeContext(ctx)
		over := time.Since(start) - deadline
		if !errors.Is(err, solve.ErrBudgetExceeded) {
			t.Fatalf("synth under a %v deadline returned %v, want ErrBudgetExceeded", deadline, err)
		}
		if over > bound {
			t.Errorf("synth overran its deadline by %v (bound %v)", over, bound)
		}
	})
}

// TestSweepSubDeadline pins GenerateSweep's per-slot budget split: a
// slot that cannot finish inside remaining/(slots remaining) fails the
// sweep with an error naming the slot — it is never resampled or
// skipped, which would make the emitted corpus depend on machine speed
// instead of the config alone. The budgets are fractions of the time
// slot 0 takes unconstrained on the running host, so the slot is
// starved however fast the host and the solver are.
func TestSweepSubDeadline(t *testing.T) {
	cfg := SweepConfig{
		Seed: 7, N: 1, MinOps: 16, MaxOps: 16,
		Shapes:      []Shape{Pipeline},
		Densities:   []float64{1},
		ReagentRate: 8,
	}
	begin := time.Now()
	if _, err := GenerateSweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	slot0 := time.Since(begin)
	starved := func(budget time.Duration) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		out, err := GenerateSweep(ctx, cfg)
		if err == nil {
			t.Fatalf("starved %d-slot sweep succeeded with %d instances, want slot sub-deadline failure", cfg.N, len(out))
		}
		if !errors.Is(err, solve.ErrBudgetExceeded) {
			t.Errorf("%d-slot sweep error %v does not wrap solve.ErrBudgetExceeded", cfg.N, err)
		}
		if !strings.Contains(err.Error(), "slot 0") {
			t.Errorf("%d-slot sweep error %q does not name the starved slot", cfg.N, err)
		}
	}

	// One slot: its sub-deadline is the sweep's deadline, so the slot
	// (whose heuristic fixpoint may finish its round after the
	// deadline) ends after the sweep's own budget has expired. The
	// error must still name it.
	starved(slot0 / 5)

	if testing.Short() {
		t.Skip("needs a deliberately starved multi-second washability probe")
	}
	// Three slots: slot 0's share of the sweep budget is a fifth of the
	// time it takes, so the starved slot must trip its sub-deadline,
	// not sneak through.
	cfg.N = 3
	starved(3 * slot0 / 5)

	// An already-exhausted budget fails before any slot runs.
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	if _, err := GenerateSweep(expired, cfg); err == nil || !errors.Is(err, solve.ErrBudgetExceeded) {
		t.Errorf("exhausted sweep returned %v, want ErrBudgetExceeded", err)
	}
}
