package obs

import (
	"context"
	"testing"
)

// The disabled path is the cost every span site pays by default;
// DESIGN.md's cost contract requires it to stay negligible. The search
// hot loops themselves read no obs state (they publish to
// solve.Progress, pinned by the washpath package's
// BenchmarkProgressOverhead). These benchmarks pin the primitive costs.

func BenchmarkDisabledStartEnd(b *testing.B) {
	Disable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := Start(ctx, "hot")
		s.End()
	}
}

func BenchmarkEnabledStartEnd(b *testing.B) {
	Enable()
	defer Disable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := Start(ctx, "hot")
		s.End()
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("pdw_bench_total")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("pdw_bench_seconds", nil)
	for i := 0; i < b.N; i++ {
		h.Observe(0.005)
	}
}
