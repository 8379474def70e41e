// Command chipviz renders a benchmark's synthesized chip layout and its
// execution schedule as ASCII art.
//
// Usage:
//
//	chipviz -bench PCR            # chip layout + wash-free Gantt
//	chipviz -bench PCR -washed    # layout + PDW-optimized Gantt
//	chipviz -motivating           # the paper's Fig. 2(a)-style chip
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/control"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

func main() {
	var (
		benchName  = flag.String("bench", "PCR", "benchmark name")
		washed     = flag.Bool("washed", false, "show the PDW-optimized schedule")
		motivating = flag.Bool("motivating", false, "show the paper's motivating example instead")
		valves     = flag.Bool("valves", false, "show the control layer (valves, pins, switching)")
		heat       = flag.Bool("contam", false, "show the contamination heatmap")
	)
	flag.Parse()

	var syn *synth.Result
	var err error
	if *motivating {
		a, chip, merr := benchmarks.Motivating()
		if merr != nil {
			fatal(merr)
		}
		syn, err = synth.SynthesizeOnChip(a, chip)
	} else {
		b, berr := benchmarks.ByName(*benchName)
		if berr != nil {
			fatal(berr)
		}
		syn, err = b.Synthesize()
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("chip %q (%dx%d)\n", syn.Chip.Name, syn.Chip.W, syn.Chip.H)
	fmt.Println(syn.Chip.Render())
	for _, d := range syn.Chip.Devices() {
		fmt.Println(" ", d)
	}
	for _, p := range syn.Chip.Ports() {
		fmt.Printf("  %s port %s\n", p.Kind, p)
	}
	fmt.Println()

	sched := syn.Schedule
	if *washed {
		res, err := pdw.Optimize(syn.Schedule, pdw.Options{Budget: solve.Budget{Window: 10 * time.Second}})
		if err != nil {
			fatal(err)
		}
		sched = res.Schedule
		fmt.Printf("PDW-optimized schedule (%d washes):\n", len(res.Washes))
	} else {
		fmt.Println("wash-free schedule:")
	}
	fmt.Println(sched.Gantt())

	if *heat {
		hm, err := contam.Heatmap(sched)
		if err != nil {
			fatal(err)
		}
		fmt.Println("contamination heatmap (events per cell):")
		fmt.Println(hm)
	}
	if *valves {
		layer := control.Synthesize(syn.Chip)
		plan, err := control.BuildPlan(layer, sched)
		if err != nil {
			fatal(err)
		}
		st := plan.Stats()
		fmt.Printf("control layer: %d valves (%d actuated), %d control pins after sharing, %d switch operations\n",
			st["valves"], st["valves_actuated"], st["control_pins"], st["switches"])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chipviz:", err)
	os.Exit(1)
}
