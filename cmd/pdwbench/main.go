// Command pdwbench regenerates the paper's evaluation artifacts: the
// Table II comparison between DAWO and PathDriver-Wash, the Fig. 4
// average-waiting-time chart, and the Fig. 5 total-wash-time chart, over
// the eight benchmarks of Sec. IV.
//
// Usage:
//
//	pdwbench                      # Table II + Fig. 4 + Fig. 5
//	pdwbench -table2              # only Table II
//	pdwbench -csv                 # machine-readable CSV
//	pdwbench -paper               # measured-vs-paper improvement comparison
//	pdwbench -quick               # smaller solver budgets (fast smoke run)
//	pdwbench -stats               # per-benchmark structured solve traces
//	pdwbench -parallel 4          # worker-pool sweep with 4 workers
//	pdwbench -json out.json       # machine-readable sweep result (stable schema)
//	pdwbench -count 5 -json out.json # repeat the sweep 5x, recording wall-time samples
//	                              # (on one worker unless -parallel is given)
//	pdwbench -validate out.json   # validate a bench JSON file and exit
//	pdwbench -compare old.json new.json # statistical diff of two bench files
//	pdwbench -compare -md old.json new.json # ... as a markdown table
//	pdwbench -baseline old.json   # run the sweep, diff against old.json,
//	                              # exit non-zero on significant regression
//	pdwbench -corpus 50           # sweep a seeded 50-instance generated corpus
//	                              # instead of the Table II benchmarks
//	pdwbench -corpus 50 -corpus-seed 7 # ... from a different master seed
//	pdwbench -corpus 50 -shard 1/4 # run only the second of four shards
//	pdwbench -merge out.json s0.json s1.json # merge per-shard bench files
//	pdwbench -corpus 50 -oracle   # differential oracle over the corpus:
//	                              # cross-solver invariants, exit 1 on violation
//	pdwbench -trace out.trace.json # Chrome trace-event span dump (Perfetto)
//	pdwbench -events out.jsonl    # JSONL span event log
//	pdwbench -listen :8080        # live /metrics, /debug/vars, /debug/pprof
//
// Benchmarks that fail are reported on stderr and the command exits
// non-zero, but every artifact is still produced from the rows that
// completed — a sweep never silently omits Table II rows.
//
// The regression verdicts come from internal/report.Diff: Mann–Whitney
// significance on wall-time samples when both files carry them, fixed
// relative thresholds otherwise, and a hard refusal to compare -quick
// files against full runs. -baseline fails the run (exit 1) on any
// regression in n_wash / l_wash_mm / t_assay_s, on a wall-time
// regression beyond -wall-threshold, or on a benchmark that vanished
// relative to the baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/harness"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/report"
	"pathdriverwash/internal/solve"
)

func main() {
	var (
		table2   = flag.Bool("table2", false, "print Table II only")
		fig4     = flag.Bool("fig4", false, "print Fig. 4 only")
		fig5     = flag.Bool("fig5", false, "print Fig. 5 only")
		csv      = flag.Bool("csv", false, "print CSV only")
		paper    = flag.Bool("paper", false, "print measured-vs-paper comparison only")
		quick    = flag.Bool("quick", false, "small solver budgets")
		stats    = flag.Bool("stats", false, "print per-benchmark solve traces")
		winTL    = flag.Duration("window-time", 10*time.Second, "time-window search limit per benchmark")
		pathTL   = flag.Duration("path-time", 3*time.Second, "wash-path search limit per path")
		budget   = flag.Duration("budget", 0, "total sweep deadline; expiry degrades runs to heuristic incumbents")
		par      = flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS; 1 by default with -count > 1)")
		jsonOut  = flag.String("json", "", "write the machine-readable sweep result to this file")
		count    = flag.Int("count", 1, "run each benchmark this many times, recording per-iteration wall-time samples; the samples are taken on one worker unless -parallel is set")
		validate = flag.String("validate", "", "validate a bench JSON file against the schema and exit")
		compare  = flag.Bool("compare", false, "compare two bench JSON files (old new) and exit")
		md       = flag.Bool("md", false, "render -compare / -baseline diffs as markdown")
		baseline = flag.String("baseline", "", "bench JSON baseline: run the sweep, diff against it, exit non-zero on regression")
		wallGate = flag.Float64("wall-threshold", 0.20, "relative wall-time regression that fails -baseline (0.20 = +20%)")
		corpusN  = flag.Int("corpus", 0, "sweep a seeded generated corpus of this many instances instead of the Table II benchmarks")
		corpSeed = flag.Uint64("corpus-seed", 1, "master seed of the -corpus sweep")
		shard    = flag.String("shard", "", "run only shard i of n (\"i/n\", 0-based) of the benchmark list")
		merge    = flag.Bool("merge", false, "merge per-shard bench files (out in1 in2 ...) and exit")
		oracle   = flag.Bool("oracle", false, "run the differential oracle over the benchmark list and exit")
		quality  = flag.Bool("quality", false, "with -compare: diff only the deterministic solution-quality metrics, not wall_s")
		traceOut = flag.String("trace", "", "write a Chrome trace-event span dump to this file")
		events   = flag.String("events", "", "stream span events as JSON lines to this file")
		listen   = flag.String("listen", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	)
	flag.Parse()

	if *validate != "" {
		if _, err := readBenchFile(*validate); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid bench file (schema v%d)\n", *validate, report.BenchSchemaVersion)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two bench files: pdwbench -compare old.json new.json"))
		}
		oldFile, err := readBenchFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		newFile, err := readBenchFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		rep, err := report.DiffOpts(oldFile, newFile, report.DiffOptions{QualityOnly: *quality})
		if err != nil {
			fatal(err)
		}
		if *md {
			fmt.Print(rep.Markdown())
		} else {
			fmt.Print(rep.Table())
		}
		return
	}
	if *merge {
		if flag.NArg() < 3 {
			fatal(fmt.Errorf("-merge needs an output and at least two inputs: pdwbench -merge out.json shard0.json shard1.json ..."))
		}
		files := make([]*report.BenchFile, 0, flag.NArg()-1)
		for _, path := range flag.Args()[1:] {
			f, err := readBenchFile(path)
			if err != nil {
				fatal(err)
			}
			files = append(files, f)
		}
		merged, err := report.Merge(files)
		if err != nil {
			fatal(err)
		}
		if err := writeFileWith(flag.Arg(0), func(w io.Writer) error {
			return report.WriteBenchJSON(w, merged)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: merged %d shards, %d benchmarks, %d failures\n",
			flag.Arg(0), len(files), len(merged.Benchmarks), len(merged.Failures))
		return
	}

	// Observability wiring: any exporter flag enables span recording
	// for the whole run. Metrics are always counted, so the bench file's
	// metrics snapshot needs no flag.
	var traceBuf *obs.TraceBuffer
	if *traceOut != "" {
		traceBuf = &obs.TraceBuffer{}
		obs.AddSink(traceBuf)
		obs.Enable()
	}
	var eventsFile *os.File
	var eventsJSONL *obs.JSONLWriter
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		eventsFile = f
		eventsJSONL = obs.NewJSONLWriter(f)
		obs.AddSink(eventsJSONL)
		obs.Enable()
	}
	if _, err := obs.ServeDebug("pdwbench", *listen); err != nil {
		fatal(err)
	}

	opts := harness.Options{PDW: pdw.Options{
		Budget: solve.Budget{PerPath: *pathTL, Window: *winTL},
	}}
	if *quick {
		opts.PDW.Budget = solve.Budget{PerPath: 500 * time.Millisecond, Window: 2 * time.Second}
	}

	ctx := context.Background()
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}

	benches := benchmarks.All()
	if *corpusN > 0 {
		cs, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{Seed: *corpSeed, N: *corpusN})
		if err != nil {
			fatal(err)
		}
		benches = cs
		// Corpus sweeps run the deterministic heuristic pipeline: the
		// generator's washability guarantee is proven with heuristic
		// paths and greedy windows (corpus.LevelWashable), and exact-ILP
		// behavior is the -oracle mode's job. This also keeps sharded
		// sweeps byte-reproducible: no ILP time limits to truncate
		// differently between runs.
		opts.PDW.HeuristicPaths = true
		opts.PDW.HeuristicWindows = true
	}
	if *shard != "" {
		idx, cnt, err := harness.ParseShard(*shard)
		if err != nil {
			fatal(err)
		}
		if benches, err = harness.Shard(benches, idx, cnt); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pdwbench: shard %s: %d benchmarks\n", *shard, len(benches))
	}
	if *oracle {
		oo := corpus.OracleOptions{}
		if *quick {
			oo.PathTimeLimit = 500 * time.Millisecond
			oo.MaxPathChecks = 3
		}
		verdicts, viols, err := corpus.CheckCorpus(ctx, benches, oo)
		if err != nil {
			fatal(err)
		}
		checks := 0
		for _, v := range verdicts {
			checks += v.PathChecks
		}
		fmt.Printf("oracle: %d instances, %d exact-vs-heuristic path checks, %d violations\n",
			len(verdicts), checks, len(viols))
		if len(viols) > 0 {
			for _, v := range viols {
				fmt.Fprintf(os.Stderr, "pdwbench: oracle violation: %s\n", v)
			}
			os.Exit(1)
		}
		return
	}
	start := time.Now()
	var (
		outs    []*harness.Outcome
		errs    []error
		samples []harness.BenchSamples
	)
	workers := *par
	if *count > 1 {
		// Repeated sweeps feed the per-iteration wall_samples series;
		// a single-shot run leaves samples nil so the artifact stays
		// byte-identical to pre-radar files. The samples are taken on
		// one worker unless -parallel asks for more: a ms-scale DAWO
		// run timed next to another worker's PDW measures the
		// neighbour's CPU and GC, not DAWO.
		if !flagSet("parallel") {
			workers = 1
		}
		outs, errs, samples = harness.RunSampledPartial(ctx, benches, opts, workers, *count)
	} else {
		outs, errs = harness.RunPartial(ctx, benches, opts, workers)
	}
	wall := time.Since(start)

	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "pdwbench: %s failed: %v\n", benches[i].Name, err)
		}
	}
	rows := harness.Rows(outs)

	var bf *report.BenchFile
	if *jsonOut != "" || *baseline != "" {
		bf = harness.BuildBenchFile(benches, outs, errs, samples, *quick, workers, wall)
		if err := bf.Validate(); err != nil {
			fatal(fmt.Errorf("generated bench file fails its own schema: %w", err))
		}
	}
	if *jsonOut != "" {
		if err := writeFileWith(*jsonOut, func(w io.Writer) error {
			return report.WriteBenchJSON(w, bf)
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pdwbench: sweep result written to %s\n", *jsonOut)
	}
	if traceBuf != nil {
		if err := writeFileWith(*traceOut, traceBuf.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pdwbench: %d spans written to %s (load in Perfetto / chrome://tracing)\n",
			traceBuf.Len(), *traceOut)
	}
	if eventsFile != nil {
		if err := eventsJSONL.Err(); err != nil {
			fatal(fmt.Errorf("events log: %w", err))
		}
		if err := eventsFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pdwbench: span events written to %s\n", *events)
	}

	all := !*table2 && !*fig4 && !*fig5 && !*csv && !*paper
	if len(rows) > 0 {
		if all || *table2 {
			fmt.Println(report.TableII(rows))
		}
		if all || *fig4 {
			fmt.Println(report.Fig4(rows))
		}
		if all || *fig5 {
			fmt.Println(report.Fig5(rows))
		}
		if *csv {
			fmt.Print(report.CSV(rows))
		}
		if all || *paper {
			fmt.Println(report.ComparisonTable(harness.PaperComparisons(outs)))
		}
	}
	if all {
		for _, o := range outs {
			if o == nil {
				continue
			}
			fmt.Printf("%-14s DAWO %6.2fs  PDW %6.2fs (windows optimal: %v, B&B nodes %d)\n",
				o.Benchmark.Name, o.DAWOTime.Seconds(), o.PDWTime.Seconds(), o.PDW.WindowsOptimal,
				o.PDW.Stats.Nodes())
		}
		fmt.Printf("total runtime: %.1fs\n", wall.Seconds())
	}
	if *stats {
		for _, o := range outs {
			if o == nil {
				continue
			}
			fmt.Printf("\n%s PDW solve trace:\n%s\n", o.Benchmark.Name, o.PDW.Stats.Summary())
		}
	}
	if *baseline != "" {
		base, err := readBenchFile(*baseline)
		if err != nil {
			fatal(fmt.Errorf("baseline: %w", err))
		}
		rep, err := report.Diff(base, bf)
		if err != nil {
			fatal(err)
		}
		if *md {
			fmt.Print(rep.Markdown())
		} else {
			fmt.Print(rep.Table())
		}
		if viol := rep.Gate(*wallGate); len(viol) > 0 {
			fmt.Fprintf(os.Stderr, "pdwbench: %d regression(s) against baseline %s:\n", len(viol), *baseline)
			for _, v := range viol {
				if v.Verdict == report.VerdictMissing {
					fmt.Fprintf(os.Stderr, "  %s: missing from this run\n", v.Benchmark)
					continue
				}
				fmt.Fprintf(os.Stderr, "  %s/%s/%s: %g -> %g\n", v.Benchmark, v.Method, v.Metric, v.Old, v.New)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pdwbench: no regressions against baseline %s\n", *baseline)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "pdwbench: %d of %d benchmarks failed\n", failed, len(benches))
		os.Exit(1)
	}
}

// readBenchFile opens, parses, and schema-validates one bench file.
// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func readBenchFile(path string) (*report.BenchFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return report.ReadBenchJSON(f)
}

// writeFileWith creates path, streams through write, and closes it,
// reporting the first error.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdwbench:", err)
	os.Exit(1)
}
