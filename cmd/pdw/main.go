// Command pdw runs PathDriver-Wash (or the DAWO baseline) on one of the
// paper's benchmarks and prints the optimized execution procedure.
//
// Usage:
//
//	pdw -bench PCR                 # run PDW on the PCR benchmark
//	pdw -bench IVD -method dawo    # run the baseline
//	pdw -bench PCR -gantt -paths   # also print the Gantt chart and paths
//	pdw -bench PCR -stats          # print the structured solve trace
//	pdw -bench PCR -budget 2s      # bound the whole run by a deadline
//	pdw -file assay.json           # run a custom JSON assay
//	pdw -bench PCR -listen :8080   # live /metrics, /debug/vars, /debug/pprof
//	pdw -bench PCR -export         # dump a benchmark as JSON
//	pdw -list                      # list available benchmarks
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/assayio"
	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/demandwash"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/scheduleio"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

func main() {
	var (
		benchName = flag.String("bench", "PCR", "benchmark name (see -list)")
		file      = flag.String("file", "", "JSON assay file (overrides -bench)")
		export    = flag.Bool("export", false, "print the selected benchmark as JSON and exit")
		method    = flag.String("method", "pdw", "optimizer: pdw or dawo")
		gantt     = flag.Bool("gantt", false, "print the schedule Gantt chart")
		paths     = flag.Bool("paths", false, "print every flow path (Table I style)")
		chipArt   = flag.Bool("chip", false, "print the chip layout")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		pathTL    = flag.Duration("path-time", 3*time.Second, "wash-path search time limit")
		winTL     = flag.Duration("window-time", 10*time.Second, "time-window search time limit")
		budget    = flag.Duration("budget", 0, "total wall-clock budget; on expiry the run degrades to heuristic incumbents")
		stats     = flag.Bool("stats", false, "print the structured solve trace")
		heuristic = flag.Bool("heuristic", false, "use BFS paths and greedy windows (no exact search)")
		outJSON   = flag.String("out", "", "write the optimized schedule as JSON to this file")
		listen    = flag.String("listen", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	)
	flag.Parse()

	if _, err := obs.ServeDebug("pdw", *listen); err != nil {
		fatal(err)
	}

	if *list {
		for _, b := range benchmarks.All() {
			ops, _, tasks := b.Assay.Stats()
			devs := 0
			for _, d := range b.Config.Devices {
				devs += d.Count
			}
			fmt.Printf("%-14s |O|=%d |D|=%d |E|=%d\n", b.Name, ops, devs, tasks)
		}
		return
	}

	var a *assay.Assay
	var cfg synth.Config
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		a, cfg, err = assayio.Decode(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		b, err := benchmarks.ByName(*benchName)
		if err != nil {
			fatal(err)
		}
		a, cfg = b.Assay, b.Config
	}
	if *export {
		if err := assayio.Encode(os.Stdout, a, cfg); err != nil {
			fatal(err)
		}
		return
	}

	syn, err := synth.Synthesize(a, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("assay %s: chip %dx%d, %d devices, wash-free makespan %ds\n",
		a.Name, syn.Chip.W, syn.Chip.H, len(syn.Chip.Devices()), syn.Schedule.Makespan())
	if *chipArt {
		fmt.Println(syn.Chip.Render())
	}

	ref, err := pdw.CompressBase(syn.Schedule)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	// With -listen, the run is visible on /debug/solves while it lasts:
	// attach a live progress view and register it under the assay name.
	prog := solve.NewProgress()
	ctx = solve.WithProgress(ctx, prog)
	unregister := obs.RegisterSolve("", "cli", *method+":"+a.Name, prog.Snapshot)
	defer unregister()
	var out *schedule.Schedule
	switch *method {
	case "pdw":
		res, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{
			Budget:         solve.Budget{Total: *budget, PerPath: *pathTL, Window: *winTL},
			HeuristicPaths: *heuristic, HeuristicWindows: *heuristic,
		})
		if err != nil {
			fatal(err)
		}
		out = res.Schedule
		fmt.Printf("PDW: %d washes (%d integrated removals), windows optimal: %v, objective %.2f\n",
			len(res.Washes), res.IntegratedRemovals, res.WindowsOptimal, res.Objective)
		fmt.Printf("necessity analysis: %v\n", res.Skips)
		if *stats {
			fmt.Println("solve trace:")
			fmt.Println(res.Stats.Summary())
		}
	case "dawo":
		res, err := dawo.OptimizeContext(ctx, syn.Schedule, dawo.Options{
			Budget: solve.Budget{Total: *budget},
		})
		if err != nil {
			fatal(err)
		}
		out = res.Schedule
		fmt.Printf("DAWO: %d washes in %d rounds\n", len(res.Washes), res.Rounds)
		if *stats {
			fmt.Println("solve trace:")
			fmt.Println(res.Stats.Summary())
		}
	case "demand":
		res, err := demandwash.OptimizeContext(ctx, syn.Schedule, demandwash.Options{
			Budget: solve.Budget{Total: *budget},
		})
		if err != nil {
			fatal(err)
		}
		out = res.Schedule
		fmt.Printf("demand-driven: %d washes in %d rounds\n", len(res.Washes), res.Rounds)
	default:
		fatal(fmt.Errorf("unknown method %q (want pdw, dawo or demand)", *method))
	}

	m := out.ComputeMetrics(ref)
	fmt.Printf("N_wash=%d  L_wash=%.0f mm  T_delay=%ds  T_assay=%ds  avg-wait=%.2fs  wash-time=%ds\n",
		m.NWash, m.LWashMM, m.TDelay, m.TAssay, m.AvgWaitSeconds, m.TotalWashSeconds)

	if *paths {
		fmt.Println("\nflow paths:")
		for _, t := range out.SortedByStart() {
			if !t.Kind.Fluidic() || !t.Active() {
				continue
			}
			fmt.Printf("  %-14s [%2d,%2d) %s\n", t.ID, t.Start, t.End, t.Path.Describe(out.Chip))
		}
	}
	if *gantt {
		fmt.Println()
		fmt.Println(out.Gantt())
	}
	if *outJSON != "" {
		f, err := os.Create(*outJSON)
		if err != nil {
			fatal(err)
		}
		if err := scheduleio.Encode(f, out); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("schedule written to %s\n", *outJSON)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdw:", err)
	os.Exit(1)
}
