// Package harness runs the paper's experiments: it synthesizes each
// Table II benchmark, runs the DAWO baseline and PDW on the same
// wash-free input scheduling, measures every reported quantity against
// the wash-free reference (the input re-timed as soon as its
// precedence DAG allows, pdw.CompressBase), and assembles report rows
// for Table II, Fig. 4, and Fig. 5.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/report"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// Worker-pool telemetry handles. The busy gauge tracks how many pool
// workers are inside a benchmark run at this instant; sampled against
// the pool size it gives utilization.
var (
	benchRunsTotal   = obs.Default().Counter("pdw_harness_benchmarks_total")
	benchErrorsTotal = obs.Default().Counter("pdw_harness_benchmark_errors_total")
	// benchFailuresTotal counts benchmarks a sweep could not complete,
	// including ones never started because the sweep's context expired —
	// RunPartial increments it, so failed sweeps are visible in /metrics
	// and in the BenchFile metrics snapshot (benchErrorsTotal only sees
	// runs that entered RunBenchmarkContext).
	benchFailuresTotal = obs.Default().Counter("pdw_harness_benchmark_failures_total")
	workersBusy        = obs.Default().Gauge("pdw_harness_workers_busy")
	workersTotal       = obs.Default().Gauge("pdw_harness_workers_total")
)

// Options tunes an experiment run.
type Options struct {
	// PDW forwards solver options; zero value uses PDW defaults.
	PDW pdw.Options
	// DAWO forwards baseline options.
	DAWO dawo.Options
}

// Outcome is the full result of one benchmark run.
type Outcome struct {
	Benchmark *benchmarks.Benchmark
	Row       report.Row
	// Base is the wash-free input scheduling; Reference the re-timed
	// wash-free schedule used as the T_delay / waiting-time baseline.
	Base, Reference *schedule.Schedule
	DAWO            *dawo.Result
	PDW             *pdw.Result
	// Runtimes of the two optimizers.
	DAWOTime, PDWTime time.Duration
	// SynthTime and CompressTime are the shared setup stages that
	// precede both optimizers (benchmark synthesis and the wash-free
	// reference); together with the optimizers' solve.Stats
	// phases they give the bench file its per-phase breakdown.
	SynthTime, CompressTime time.Duration
}

// RunBenchmark executes both methods on one benchmark.
func RunBenchmark(b *benchmarks.Benchmark, opts Options) (*Outcome, error) {
	return RunBenchmarkContext(context.Background(), b, opts)
}

// RunBenchmarkContext is RunBenchmark under a context. Cancellation
// propagates into every solver phase; DAWO and PDW degrade to their
// heuristic incumbents (see their OptimizeContext docs), so a canceled
// run still yields a valid, verified Outcome unless synthesis itself
// was aborted at entry.
func RunBenchmarkContext(ctx context.Context, b *benchmarks.Benchmark, opts Options) (_ *Outcome, err error) {
	// The benchmark span is the root of the run's trace tree: synthesis,
	// the wash-free reference, DAWO, and PDW all nest under it, so a Chrome
	// trace of a harness run shows one track per benchmark whose root
	// span covers the run wall-to-wall.
	ctx, span := obs.Start(ctx, "benchmark", obs.A("name", b.Name))
	// The run also appears on /debug/solves for its duration, so a sweep
	// driven from pdwbench -listen shows one live row per benchmark.
	prog := solve.NewProgress()
	ctx = solve.WithProgress(ctx, prog)
	unregister := obs.RegisterSolve("", "benchmark", b.Name, prog.Snapshot)
	defer unregister()
	defer func() {
		benchRunsTotal.Inc()
		if err != nil {
			benchErrorsTotal.Inc()
		}
		if span != nil {
			span.SetAttr("ok", err == nil)
			span.End()
		}
	}()
	t0 := time.Now()
	syn, err := b.SynthesizeContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	synthTime := time.Since(t0)
	t0 = time.Now()
	ref, err := pdw.CompressBase(syn.Schedule)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: compress base: %w", b.Name, err)
	}
	compressTime := time.Since(t0)
	obs.RecordSpan(ctx, "compress-base", t0, compressTime)

	t0 = time.Now()
	dres, err := dawo.OptimizeContext(ctx, syn.Schedule, opts.DAWO)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: DAWO: %w", b.Name, err)
	}
	dTime := time.Since(t0)

	t0 = time.Now()
	pres, err := pdw.OptimizeContext(ctx, syn.Schedule, opts.PDW)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: PDW: %w", b.Name, err)
	}
	pTime := time.Since(t0)

	dm := dres.Schedule.ComputeMetrics(ref)
	pm := pres.Schedule.ComputeMetrics(ref)
	ops, _, tasks := b.Assay.Stats()
	devices := 0
	for _, d := range b.Config.Devices {
		devices += d.Count
	}
	row := report.Row{
		Benchmark: b.Name,
		Ops:       ops, Devices: devices, Tasks: tasks,
		DAWONWash: dm.NWash, PDWNWash: pm.NWash,
		DAWOLWash: dm.LWashMM, PDWLWash: pm.LWashMM,
		DAWOTDelay: clampNonNegative(dm.TDelay), PDWTDelay: clampNonNegative(pm.TDelay),
		DAWOTAssay: dm.TAssay, PDWTAssay: pm.TAssay,
		DAWOAvgWait: dm.AvgWaitSeconds, PDWAvgWait: pm.AvgWaitSeconds,
		DAWOWashTime: dm.TotalWashSeconds, PDWWashTime: pm.TotalWashSeconds,
		DAWOBuffer: dm.BufferMM, PDWBuffer: pm.BufferMM,
	}
	if span != nil {
		span.SetAttr("pdw_n_wash", pm.NWash)
		span.SetAttr("dawo_n_wash", dm.NWash)
		span.SetAttr("pdw_wall_ms", pTime.Milliseconds())
		span.SetAttr("dawo_wall_ms", dTime.Milliseconds())
	}
	return &Outcome{
		Benchmark: b, Row: row,
		Base: syn.Schedule, Reference: ref,
		DAWO: dres, PDW: pres,
		DAWOTime: dTime, PDWTime: pTime,
		SynthTime: synthTime, CompressTime: compressTime,
	}, nil
}

func clampNonNegative(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// RunAll executes all Table II benchmarks sequentially and returns
// their outcomes in paper order.
func RunAll(opts Options) ([]*Outcome, error) {
	return Run(context.Background(), benchmarks.All(), opts, 1)
}

// RunAllParallel executes the benchmarks on a worker pool with at most
// workers goroutines (0 selects GOMAXPROCS). Every benchmark run is
// self-contained and deterministic, so the outcomes match RunAll; only
// the per-run wall-clock measurements change under CPU contention.
func RunAllParallel(opts Options, workers int) ([]*Outcome, error) {
	return Run(context.Background(), benchmarks.All(), opts, workers)
}

// Run executes the given benchmarks on a bounded worker pool and
// returns their outcomes in input order. workers caps pool size; 0 (or
// any non-positive value) selects GOMAXPROCS, and the pool never grows
// beyond the number of benchmarks. Jobs are drained from a shared
// channel, so a slow benchmark never blocks the rest of the queue
// behind it.
//
// Cancelling ctx stops feeding new jobs and propagates into every
// in-flight solve; those runs degrade to their heuristic incumbents and
// still produce valid outcomes, while benchmarks never started are
// reported as a ctx.Err()-wrapped error. The first error in paper order
// wins.
func Run(ctx context.Context, benches []*benchmarks.Benchmark, opts Options, workers int) ([]*Outcome, error) {
	outs, errs := RunPartial(ctx, benches, opts, workers)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// RunPartial is Run without the first-error-wins contract: every
// benchmark is attempted (subject to ctx), and the per-benchmark errors
// come back alongside the outcomes, both in input order. errs[i] is nil
// exactly when outs[i] is a valid outcome, so callers can report which
// benchmarks failed instead of discarding the whole run — cmd/pdwbench
// uses this to print every Table II row it can and list the rest on
// stderr.
func RunPartial(ctx context.Context, benches []*benchmarks.Benchmark, opts Options, workers int) ([]*Outcome, []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(benches) {
		workers = len(benches)
	}
	workersTotal.Set(int64(workers))
	outs := make([]*Outcome, len(benches))
	errs := make([]error, len(benches))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				workersBusy.Add(1)
				outs[i], errs[i] = RunBenchmarkContext(ctx, benches[i], opts)
				workersBusy.Add(-1)
			}
		}()
	}
feed:
	for i := range benches {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Jobs i..end were never handed to a worker, so these slots
			// are untouched and safe to write from the feeder.
			for j := i; j < len(benches); j++ {
				errs[j] = fmt.Errorf("harness: %s: not started: %w", benches[j].Name, ctx.Err())
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			benchFailuresTotal.Inc()
		}
	}
	return outs, errs
}

// BenchSamples holds the per-iteration wall times (seconds) of one
// benchmark across a repeated sweep, one series per method. Iterations
// in which the benchmark failed contribute no sample, so the series
// may be shorter than the iteration count.
type BenchSamples struct {
	DAWOWall, PDWWall []float64
}

// RunSampledPartial is RunPartial repeated count times (count < 1 is
// treated as 1), the measurement discipline behind `pdwbench -count`:
// solver wall times are noisy, and a regression verdict needs a sample
// set, not a single shot. The returned outcomes and errors are the
// first iteration's (its outcome also populates the Table II rows);
// samples[i] collects every iteration's wall times for benches[i],
// including the first. A benchmark that failed in iteration one keeps
// its error even if a later iteration succeeds — repeating a sweep
// must never hide a failure.
func RunSampledPartial(ctx context.Context, benches []*benchmarks.Benchmark, opts Options,
	workers, count int) ([]*Outcome, []error, []BenchSamples) {

	if count < 1 {
		count = 1
	}
	samples := make([]BenchSamples, len(benches))
	outs, errs := RunPartial(ctx, benches, opts, workers)
	record := func(iter []*Outcome) {
		for i, o := range iter {
			if o == nil {
				continue
			}
			samples[i].DAWOWall = append(samples[i].DAWOWall, o.DAWOTime.Seconds())
			samples[i].PDWWall = append(samples[i].PDWWall, o.PDWTime.Seconds())
		}
	}
	record(outs)
	for iter := 1; iter < count; iter++ {
		if ctx.Err() != nil {
			break
		}
		more, _ := RunPartial(ctx, benches, opts, workers)
		record(more)
	}
	return outs, errs, samples
}

// BuildBenchFile assembles the machine-readable sweep result that
// cmd/pdwbench -json writes. outs/errs are RunPartial's parallel
// slices for benches; nil outcomes become Failures entries. samples
// (from RunSampledPartial; nil for single-shot sweeps) become the
// per-method wall_samples series, and each outcome's solve.Stats
// phases plus the shared setup timings become the per-phase wall-time
// breakdown. The process-wide observability counter snapshot is
// embedded so a bench file carries its own solver-effort telemetry.
func BuildBenchFile(benches []*benchmarks.Benchmark, outs []*Outcome, errs []error,
	samples []BenchSamples, quick bool, workers int, wall time.Duration) *report.BenchFile {

	f := &report.BenchFile{
		SchemaVersion:    report.BenchSchemaVersion,
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		Quick:            quick,
		Workers:          workers,
		TotalWallSeconds: wall.Seconds(),
		Metrics:          obs.Default().Snapshot(),
	}
	for i, o := range outs {
		if o == nil {
			msg := "not run"
			if i < len(errs) && errs[i] != nil {
				msg = errs[i].Error()
			}
			f.Failures = append(f.Failures, report.BenchFailure{Name: benches[i].Name, Error: msg})
			continue
		}
		r := o.Row
		var dawoSamples, pdwSamples []float64
		if i < len(samples) {
			dawoSamples, pdwSamples = samples[i].DAWOWall, samples[i].PDWWall
		}
		f.Benchmarks = append(f.Benchmarks, report.BenchResult{
			Name: r.Benchmark, Ops: r.Ops, Devices: r.Devices, Tasks: r.Tasks,
			SetupSeconds: map[string]float64{
				"synthesis":     o.SynthTime.Seconds(),
				"compress-base": o.CompressTime.Seconds(),
			},
			DAWO: report.MethodResult{
				NWash: r.DAWONWash, LWashMM: r.DAWOLWash,
				TDelaySeconds: r.DAWOTDelay, TAssaySeconds: r.DAWOTAssay,
				AvgWaitSeconds: r.DAWOAvgWait, WashTimeSeconds: r.DAWOWashTime,
				BufferMM: r.DAWOBuffer, WallSeconds: o.DAWOTime.Seconds(),
				BBNodes: o.DAWO.Stats.Nodes(), BBPruned: o.DAWO.Stats.Pruned(),
				SimplexPivots: o.DAWO.Stats.SimplexIters(),
				Canceled:      o.DAWO.Stats.Canceled,
				WallSamples:   dawoSamples,
				PhaseSeconds:  o.DAWO.Stats.PhaseSeconds(),
			},
			PDW: report.MethodResult{
				NWash: r.PDWNWash, LWashMM: r.PDWLWash,
				TDelaySeconds: r.PDWTDelay, TAssaySeconds: r.PDWTAssay,
				AvgWaitSeconds: r.PDWAvgWait, WashTimeSeconds: r.PDWWashTime,
				BufferMM: r.PDWBuffer, WallSeconds: o.PDWTime.Seconds(),
				BBNodes: o.PDW.Stats.Nodes(), BBPruned: o.PDW.Stats.Pruned(),
				SimplexPivots:  o.PDW.Stats.SimplexIters(),
				WindowsOptimal: o.PDW.WindowsOptimal,
				Canceled:       o.PDW.Stats.Canceled,
				WallSamples:    pdwSamples,
				PhaseSeconds:   o.PDW.Stats.PhaseSeconds(),
			},
		})
	}
	return f
}

// Rows extracts the report rows from outcomes, skipping nil entries
// (failed benchmarks from RunPartial).
func Rows(outs []*Outcome) []report.Row {
	rows := make([]report.Row, 0, len(outs))
	for _, o := range outs {
		if o != nil {
			rows = append(rows, o.Row)
		}
	}
	return rows
}

// PaperComparisons builds the measured-vs-paper reduction table for
// EXPERIMENTS.md.
func PaperComparisons(outs []*Outcome) []report.PaperComparison {
	var cs []report.PaperComparison
	for _, o := range outs {
		if o == nil {
			continue
		}
		p := o.Benchmark.Paper
		r := o.Row
		cs = append(cs,
			report.PaperComparison{Benchmark: o.Benchmark.Name, Metric: "N_wash",
				PaperIm: report.Improvement(float64(p.DAWO.NWash), float64(p.PDW.NWash)),
				OursIm:  report.Improvement(float64(r.DAWONWash), float64(r.PDWNWash))},
			report.PaperComparison{Benchmark: o.Benchmark.Name, Metric: "L_wash",
				PaperIm: report.Improvement(p.DAWO.LWash, p.PDW.LWash),
				OursIm:  report.Improvement(r.DAWOLWash, r.PDWLWash)},
			report.PaperComparison{Benchmark: o.Benchmark.Name, Metric: "T_delay",
				PaperIm: report.Improvement(float64(p.DAWO.TDelay), float64(p.PDW.TDelay)),
				OursIm:  report.Improvement(float64(r.DAWOTDelay), float64(r.PDWTDelay))},
			report.PaperComparison{Benchmark: o.Benchmark.Name, Metric: "T_assay",
				PaperIm: report.Improvement(float64(p.DAWO.TAssay), float64(p.PDW.TAssay)),
				OursIm:  report.Improvement(float64(r.DAWOTAssay), float64(r.PDWTAssay))},
		)
	}
	return cs
}
