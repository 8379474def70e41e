package solve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSentinelsMatchThroughWrapping(t *testing.T) {
	for _, sentinel := range []error{ErrInfeasible, ErrBudgetExceeded, ErrInvalidAssay} {
		wrapped := fmt.Errorf("layer: %w: detail", sentinel)
		double := fmt.Errorf("outer: %w", wrapped)
		if !errors.Is(double, sentinel) {
			t.Errorf("errors.Is lost %v through double wrapping", sentinel)
		}
	}
	if errors.Is(fmt.Errorf("x: %w", ErrInfeasible), ErrBudgetExceeded) {
		t.Error("sentinels must not match each other")
	}
}

func TestBudgetContextZeroIsNoop(t *testing.T) {
	ctx := context.Background()
	got, cancel := Budget{}.Context(ctx)
	defer cancel()
	if got != ctx {
		t.Fatal("zero Total must return ctx unchanged")
	}
	if _, ok := got.Deadline(); ok {
		t.Fatal("zero Total must not install a deadline")
	}
}

func TestBudgetContextInstallsDeadline(t *testing.T) {
	got, cancel := Budget{Total: time.Minute}.Context(context.Background())
	defer cancel()
	d, ok := got.Deadline()
	if !ok {
		t.Fatal("no deadline installed")
	}
	if until := time.Until(d); until <= 0 || until > time.Minute {
		t.Fatalf("deadline %v from now, want (0, 1m]", until)
	}
}

func TestOr(t *testing.T) {
	if Or(time.Second, time.Minute) != time.Second {
		t.Error("positive d must win")
	}
	if Or(0, 0, time.Minute) != time.Minute {
		t.Error("first positive fallback must win")
	}
	if Or(0) != 0 {
		t.Error("no positives must give zero")
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.StartPhase("p")()
	s.AddMILP(MILPStat{})
	s.SetSkips(map[string]int{"x": 1})
	s.MarkCanceled()
	if s.Nodes() != 0 || s.Pruned() != 0 {
		t.Error("nil Stats must report zero work")
	}
	if s.Summary() == "" {
		t.Error("nil Stats must still render a summary")
	}
}

func TestStatsAggregationAndSummary(t *testing.T) {
	s := &Stats{}
	end := s.StartPhase("wash-insertion")
	end()
	s.AddMILP(MILPStat{Label: "wash-path[1t r0]", Nodes: 3, Pruned: 1,
		Status: "optimal", Optimal: true,
		Incumbents: []Incumbent{{Obj: 7, Node: 2, Elapsed: time.Millisecond}}})
	s.AddMILP(MILPStat{Label: "window-milp", Nodes: 5, Pruned: 2, Status: "feasible(limit)"})
	s.SetSkips(map[string]int{"type1-unused": 2, "wash-needed": 1})
	s.MarkCanceled()
	if s.Nodes() != 8 || s.Pruned() != 3 {
		t.Fatalf("aggregates = %d/%d", s.Nodes(), s.Pruned())
	}
	sum := s.Summary()
	for _, want := range []string{
		"wash-insertion", "wash-path[1t r0]", "window-milp",
		"type1-unused=2", "budget expired",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
