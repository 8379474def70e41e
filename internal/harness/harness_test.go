package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
)

func quickOpts() Options {
	return Options{
		PDW: pdw.Options{
			Budget: solve.Budget{PerPath: 500 * time.Millisecond, Window: 2 * time.Second},
		},
	}
}

func TestRunBenchmarkPCR(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBenchmark(b, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := out.Row
	if r.Benchmark != "PCR" || r.Ops != 7 || r.Devices != 5 || r.Tasks != 15 {
		t.Errorf("row shape = %+v", r)
	}
	if r.PDWNWash > r.DAWONWash {
		t.Errorf("PDW washes more than DAWO: %d vs %d", r.PDWNWash, r.DAWONWash)
	}
	if r.PDWTAssay > r.DAWOTAssay {
		t.Errorf("PDW slower than DAWO: %d vs %d", r.PDWTAssay, r.DAWOTAssay)
	}
	if r.PDWTDelay < 0 || r.DAWOTDelay < 0 {
		t.Errorf("negative delays: %+v", r)
	}
	// Both outputs must be contamination-free and valid.
	for _, s := range []interface{ Validate() error }{out.DAWO.Schedule, out.PDW.Schedule} {
		if err := s.Validate(); err != nil {
			t.Errorf("invalid schedule: %v", err)
		}
	}
	if err := contam.Verify(out.PDW.Schedule); err != nil {
		t.Errorf("PDW not clean: %v", err)
	}
	if err := contam.Verify(out.DAWO.Schedule); err != nil {
		t.Errorf("DAWO not clean: %v", err)
	}
	if out.DAWOTime <= 0 || out.PDWTime <= 0 {
		t.Error("runtimes not recorded")
	}
}

func TestRowsAndComparisons(t *testing.T) {
	b, err := benchmarks.ByName("Kinase act-1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBenchmark(b, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	outs := []*Outcome{out}
	rows := Rows(outs)
	if len(rows) != 1 || rows[0].Benchmark != "Kinase act-1" {
		t.Fatalf("rows = %+v", rows)
	}
	cs := PaperComparisons(outs)
	if len(cs) != 4 {
		t.Fatalf("comparisons = %d want 4", len(cs))
	}
	metrics := map[string]bool{}
	for _, c := range cs {
		metrics[c.Metric] = true
	}
	for _, m := range []string{"N_wash", "L_wash", "T_delay", "T_assay"} {
		if !metrics[m] {
			t.Errorf("missing metric %s", m)
		}
	}
}

func TestClampNonNegative(t *testing.T) {
	if clampNonNegative(-3) != 0 || clampNonNegative(5) != 5 {
		t.Fatal("clamp wrong")
	}
}

// deterministicOpts makes every solver phase wall-clock-independent:
// heuristic paths and windows never consult a deadline, and DAWO's BFS
// never did, and the wash-free reference runs no solver, so two sweeps
// — at any worker count — must agree bitwise.
func deterministicOpts() Options {
	return Options{
		PDW: pdw.Options{HeuristicPaths: true, HeuristicWindows: true},
	}
}

// TestRunAllParallelMatchesSequential proves the worker-pool sweep is
// observationally identical to the sequential one: every report row —
// all Table II / Fig. 4 / Fig. 5 metrics — must be bitwise equal. It
// runs in -short mode too, so the race-detector gate covers the pool,
// but there it sweeps only the five sub-second benchmarks (dropping
// Kinase act-2 in particular, whose conservative-policy DAWO run alone
// costs ~30s before the race detector's slowdown).
func TestRunAllParallelMatchesSequential(t *testing.T) {
	benches := benchmarks.All()
	if testing.Short() {
		var fast []*benchmarks.Benchmark
		for _, name := range []string{"PCR", "IVD", "Kinase act-1", "Synthetic1", "Synthetic2"} {
			b, err := benchmarks.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			fast = append(fast, b)
		}
		benches = fast
	}
	ctx := context.Background()
	seq, err := Run(ctx, benches, deterministicOpts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(ctx, benches, deterministicOpts(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Row != p.Row {
			t.Errorf("row %d differs:\nseq: %+v\npar: %+v", i, s.Row, p.Row)
		}
		if s.PDW.Schedule.Makespan() != p.PDW.Schedule.Makespan() ||
			s.DAWO.Schedule.Makespan() != p.DAWO.Schedule.Makespan() {
			t.Errorf("%s: makespans differ between sequential and parallel", s.Row.Benchmark)
		}
	}
}

func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, benchmarks.All(), deterministicOpts(), 2)
	if err == nil {
		t.Fatal("pre-canceled sweep must report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
}

func TestRunSingleWorkerSubset(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := Run(context.Background(), []*benchmarks.Benchmark{b}, deterministicOpts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Row.Benchmark != "PCR" {
		t.Fatalf("outs = %+v", outs)
	}
	if outs[0].PDW.Stats == nil || len(outs[0].PDW.Stats.Phases) == 0 {
		t.Error("outcome missing PDW solve stats")
	}
}
