package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"slices"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/sim"
	"pathdriverwash/pkg/pathdriver"
)

// libWorkload is a closed loop of one caller driving the library: each
// op takes one instance through Synthesize, optionally Baseline, and
// OptimizeWash, and a pass visits every instance of the pool once.
type libWorkload struct {
	pool  func(ctx context.Context, n int) ([]*benchmarks.Benchmark, error)
	opts  pathdriver.Options
	dawo  bool // run the DAWO baseline in each op
	exact bool // every ILP must close, and each instance's result repeats
}

var libWorkloads = map[string]libWorkload{
	"exact-small": {
		pool: func(ctx context.Context, n int) ([]*benchmarks.Benchmark, error) {
			return sweepPool(ctx, exactSmallSweep, n)
		},
		opts:  pathdriver.Options{Budget: pathdriver.Budget{PerPath: 20 * time.Second, Window: 30 * time.Second}},
		exact: true,
	},
	"table2-budgeted": {
		pool: tableIIPool,
		// The anytime regime: most wash-path ILPs hit their cap, so a
		// faster core shows up as quality at a fixed budget.
		opts: pathdriver.Options{Budget: pathdriver.Budget{PerPath: 50 * time.Millisecond, Window: 200 * time.Millisecond}},
		dawo: true,
	},
	"heuristic-scale": {
		pool: func(ctx context.Context, n int) ([]*benchmarks.Benchmark, error) {
			return sweepPool(ctx, heuristicScaleSweep, n)
		},
		opts:  pathdriver.Options{Heuristic: true},
		exact: true,
	},
}

// opResult is one op's outcome.
type opResult struct {
	lat     time.Duration // synth + dawo + optimize, as the caller waits
	quality quality
	layers  layers
	err     error
}

// quality is the paper's solution quality of one or more results.
type quality struct {
	objective float64 // Eq. 26 with the default weights
	nWash     int
	lWashMM   float64
	tAssayS   int
}

func (q *quality) add(o quality) {
	q.objective += o.objective
	q.nWash += o.nWash
	q.lWashMM += o.lWashMM
	q.tAssayS += o.tAssayS
}

// runOp drives one instance through the library and checks the result.
// Only the library calls count toward the op's latency; the checks are
// timed as their own span.
func (w libWorkload) runOp(ctx context.Context, b *benchmarks.Benchmark, tr *tracer, parent, root uint64) opResult {
	var r opResult
	start := time.Now()
	syn, err := pathdriver.Synthesize(ctx, b.Assay, b.Config)
	r.layers.synth = time.Since(start)
	tr.span("synth", parent, root, start, r.layers.synth)
	if err != nil {
		r.err = fmt.Errorf("synthesize: %w", err)
		return r
	}
	var baseline *pathdriver.DAWOResult
	if w.dawo {
		t0 := time.Now()
		baseline, err = pathdriver.Baseline(ctx, syn.Schedule, w.opts)
		r.layers.dawo = time.Since(t0)
		tr.span("dawo", parent, root, t0, r.layers.dawo)
		if err != nil {
			r.err = fmt.Errorf("baseline: %w", err)
			return r
		}
	}
	t0 := time.Now()
	res, err := pathdriver.OptimizeWash(ctx, syn.Schedule, w.opts)
	r.layers.optimize = time.Since(t0)
	r.lat = r.layers.synth + r.layers.dawo + r.layers.optimize
	if err != nil {
		r.err = fmt.Errorf("optimize: %w", err)
		return r
	}
	r.layers.addStats(res.Stats, res.Rounds)
	tr.span("optimize", parent, root, t0, r.layers.optimize,
		obs.A("insertion_self_s", r.layers.insertionSelf().Seconds()),
		obs.A("window_self_s", r.layers.windowSelf().Seconds()),
		obs.A("optimize_self_s", r.layers.optimizeSelf().Seconds()),
		obs.A("milps", len(res.Stats.MILPs)),
		obs.A("nodes", r.layers.nodes),
		obs.A("pivots", r.layers.pivots))

	t1 := time.Now()
	m := res.Schedule.ComputeMetrics(syn.Schedule)
	r.quality = quality{objective: res.Objective, nWash: m.NWash, lWashMM: m.LWashMM, tAssayS: m.TAssay}
	r.err = w.check(res, baseline)
	tr.span("check", parent, root, t1, time.Since(t1))
	return r
}

// check verifies one op's schedules: contamination-free by the verifier
// and by a simulated replay, not degraded by a canceled budget, and on
// exact workloads every ILP closed.
func (w libWorkload) check(res *pathdriver.PDWResult, baseline *pathdriver.DAWOResult) error {
	if err := checkSchedule(res.Schedule); err != nil {
		return fmt.Errorf("pdw: %w", err)
	}
	if res.Stats.Canceled {
		return fmt.Errorf("pdw: budget canceled the solve")
	}
	if baseline != nil {
		if err := checkSchedule(baseline.Schedule); err != nil {
			return fmt.Errorf("dawo: %w", err)
		}
	}
	if w.exact {
		for _, m := range res.Stats.MILPs {
			if !closedStatus(m.Status) {
				return fmt.Errorf("pdw: %s ended %s", m.Label, m.Status)
			}
		}
	}
	return nil
}

func checkSchedule(s *pathdriver.Schedule) error {
	if err := pathdriver.VerifyClean(s); err != nil {
		return err
	}
	if vs := sim.Run(s).ByClass(sim.Contamination); len(vs) > 0 {
		return fmt.Errorf("sim replay: %v", vs[0])
	}
	return nil
}

// runLibrary runs a library workload: setup (building and checking the
// input pool) cfg.setups times, then passes until the next one would
// end past cfg.seconds (at least one, at most cfg.maxPasses when set).
func runLibrary(ctx context.Context, w libWorkload, cfg config) (*report, error) {
	rep := &report{}
	var pool []*benchmarks.Benchmark
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		p, err := w.pool(ctx, cfg.instances)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		pool = p
	}

	var tr *tracer
	if cfg.tracePath != "" {
		tr = &tracer{}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	perInst := make([][]float64, len(pool)) // op latencies (ms) per instance
	// An untraced run measures each op's peak RSS from a collected heap
	// (see resetPeakRSS). A traced run skips the forced collections, which
	// would count in go.gc_cpu_frac.
	measurePeak := cfg.tracePath == ""
	perInstRSS := make([][]float64, len(pool)) // op peak RSS (MB) per instance
	firstQuality := make([]*quality, len(pool))
	var passWalls []float64
	var passQuality []quality
	var total layers
	mem0 := readRuntime()
	runID := tr.reserve()
	runStart := time.Now()
	for pass := 0; ; pass++ {
		var wall time.Duration
		var q quality
		for _, i := range rng.Perm(len(pool)) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			b := pool[i]
			if measurePeak {
				if err := resetPeakRSS(); err != nil {
					return nil, err
				}
			}
			opStart := time.Now()
			opID := tr.reserve()
			r := w.runOp(ctx, b, tr, opID, runID)
			if measurePeak {
				rss, err := peakRSSMB("self")
				if err != nil {
					return nil, err
				}
				perInstRSS[i] = append(perInstRSS[i], rss)
			}
			tr.finish(opID, "op", runID, runID, opStart,
				obs.A("instance", b.Name), obs.A("pass", pass))
			rep.attempted++
			if r.err == nil && w.exact && firstQuality[i] != nil && *firstQuality[i] != r.quality {
				r.err = fmt.Errorf("result differs from pass 0: %+v, then %+v", *firstQuality[i], r.quality)
			}
			if r.err != nil {
				rep.fail(fmt.Errorf("%s pass %d: %w", b.Name, pass, r.err))
				perInst[i] = append(perInst[i], math.Inf(1))
				continue
			}
			if firstQuality[i] == nil {
				fq := r.quality
				firstQuality[i] = &fq
			}
			perInst[i] = append(perInst[i], ms(r.lat))
			wall += r.lat
			q.add(r.quality)
			total.add(r.layers)
		}
		passWalls = append(passWalls, wall.Seconds())
		passQuality = append(passQuality, q)
		elapsed := time.Since(runStart)
		if cfg.maxPasses > 0 && pass+1 >= cfg.maxPasses {
			break
		}
		// Start another pass only if it should end inside the window.
		if elapsed+elapsed/time.Duration(pass+1) > cfg.seconds {
			break
		}
	}
	measured := time.Since(runStart)
	tr.finish(runID, "run", 0, 0, runStart, obs.A("workload", cfg.workload), obs.A("seed", cfg.seed))
	mem1 := readRuntime()

	// Each instance's latency is its median over passes; the op
	// percentiles are taken over instances, so every instance weighs the
	// same whatever the pass count.
	var instLat []float64
	for _, l := range perInst {
		instLat = append(instLat, median(l))
	}
	passes := len(passWalls)
	rep.note("passes=%d instances=%d ops=%d", passes, len(pool), rep.attempted)
	rep.note("setup_s over %d setups: %v", len(setups), setups)
	rep.note("pass_s samples: %v", passWalls)
	rep.note("t_assay_s_sum=%d (median pass)", medianQuality(passQuality).tAssayS)

	if measurePeak {
		// Like op_ms.tail: the largest instance's median over passes.
		var rss float64
		for _, l := range perInstRSS {
			rss = max(rss, median(l))
		}
		q := medianQuality(passQuality)
		rep.set("setup_s", median(setups))
		rep.set("pass_s", median(passWalls))
		rep.set("op_ms.p50", median(instLat))
		rep.set("op_ms.tail", slices.Max(instLat))
		rep.set("peak_rss_mb", rss)
		rep.set("objective_sum", q.objective)
		rep.set("n_wash_sum", float64(q.nWash))
		rep.set("l_wash_mm_sum", q.lWashMM)
		return rep, nil
	}
	for name, v := range total.perLayer(passes) {
		rep.set(name, v)
	}
	rep.set("go.alloc_mb", (mem1.allocBytes-mem0.allocBytes)/1e6/float64(passes))
	rep.set("go.gc_cpu_frac", ratio(mem1.gcCPU-mem0.gcCPU, mem1.totalCPU-mem0.totalCPU))
	rep.set("trace.overhead_frac", ratio(tr.overhead().Seconds(), measured.Seconds()))
	rep.zeroService()
	return rep, tr.write(cfg.tracePath)
}

// medianQuality is the pass with the median objective.
func medianQuality(qs []quality) quality {
	objs := make([]float64, len(qs))
	for i, q := range qs {
		objs[i] = q.objective
	}
	m := percentile(objs, 50)
	for _, q := range qs {
		if q.objective == m {
			return q
		}
	}
	return quality{}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}
