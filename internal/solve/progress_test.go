package solve

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.SetPhase("x")
	p.SetModel("y")
	p.AddNodes(1)
	p.AddPruned(1)
	p.Incumbent(1)
	p.SetBound(1)
	p.MarkCanceled()
	s := p.Snapshot()
	if s.Nodes != 0 || s.Phase != "" || s.BestObj != nil {
		t.Fatalf("nil Progress snapshot not zero: %+v", s)
	}
}

func TestProgressSnapshot(t *testing.T) {
	p := NewProgress()
	p.SetPhase("wash-path-ilp")
	p.SetModel("wash-path[3t r0]")
	p.AddNodes(10)
	p.AddPruned(4)
	p.Incumbent(20)
	p.SetBound(15)

	s := p.Snapshot()
	if s.Phase != "wash-path-ilp" || s.Model != "wash-path[3t r0]" {
		t.Fatalf("phase/model = %q/%q", s.Phase, s.Model)
	}
	if s.Nodes != 10 || s.Pruned != 4 || s.Incumbents != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.BestObj == nil || *s.BestObj != 20 {
		t.Fatalf("best_obj = %v", s.BestObj)
	}
	if s.Bound == nil || *s.Bound != 15 {
		t.Fatalf("bound = %v", s.Bound)
	}
	// Relative gap (20-15)/20 = 0.25.
	if s.Gap == nil || math.Abs(*s.Gap-0.25) > 1e-12 {
		t.Fatalf("gap = %v, want 0.25", s.Gap)
	}
	if s.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", s.Elapsed)
	}
}

func TestProgressGapClampedAndProvenOptimum(t *testing.T) {
	p := NewProgress()
	p.Incumbent(10)
	p.SetBound(12) // transient: bound read after a better incumbent landed
	if s := p.Snapshot(); s.Gap == nil || *s.Gap != 0 {
		t.Fatalf("gap = %v, want clamped 0", s.Gap)
	}
	p.SetBound(10) // proven optimum
	if s := p.Snapshot(); s.Gap == nil || *s.Gap != 0 {
		t.Fatalf("proven-optimal gap = %v, want 0", s.Gap)
	}
}

func TestProgressNonFiniteRejected(t *testing.T) {
	p := NewProgress()
	p.SetBound(math.Inf(-1)) // the root node's trivial bound
	p.Incumbent(math.Inf(1))
	p.Incumbent(math.NaN())
	s := p.Snapshot()
	if s.Bound != nil || s.BestObj != nil || s.Gap != nil {
		t.Fatalf("non-finite values leaked into snapshot: %+v", s)
	}
	if s.Incumbents != 2 {
		t.Fatalf("incumbents = %d (the count still ticks)", s.Incumbents)
	}
	// The snapshot must always be JSON-encodable (NaN would error).
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

func TestProgressContextCarrier(t *testing.T) {
	if got := ProgressFromContext(context.Background()); got != nil {
		t.Fatalf("empty context carries %v", got)
	}
	if got := ProgressFromContext(nil); got != nil { //nolint:staticcheck // nil-safety contract
		t.Fatalf("nil context carries %v", got)
	}
	p := NewProgress()
	ctx := WithProgress(context.Background(), p)
	if got := ProgressFromContext(ctx); got != p {
		t.Fatalf("context carries %v, want %v", got, p)
	}
	if ctx2 := WithProgress(context.Background(), nil); ProgressFromContext(ctx2) != nil {
		t.Fatal("WithProgress(nil) should be a no-op")
	}
}

func TestProgressConcurrent(t *testing.T) {
	p := NewProgress()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.AddNodes(1)
				p.AddPruned(2)
				if j%100 == 0 {
					p.Incumbent(float64(1000 - j))
					p.SetBound(float64(j))
				}
				_ = p.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Nodes != 8000 || s.Pruned != 16000 || s.Incumbents != 80 {
		t.Fatalf("counters after concurrent publish: %+v", s)
	}
}

func TestStatsBindProgress(t *testing.T) {
	p := NewProgress()
	st := &Stats{}
	st.BindProgress(p)
	if st.Progress() != p {
		t.Fatal("BindProgress not retrievable")
	}
	end := st.StartPhase("necessity-analysis")
	end()
	if s := p.Snapshot(); s.Phase != "necessity-analysis" {
		t.Fatalf("StartPhase did not publish phase: %q", s.Phase)
	}
	st.MarkCanceled()
	if !p.Snapshot().Canceled {
		t.Fatal("MarkCanceled did not propagate to progress")
	}
}
