// Budgeted: run PathDriver-Wash under a wall-clock budget and inspect
// the structured solve telemetry. The whole pipeline — wash-path ILPs,
// the time-window search, verification — shares one deadline; when it
// expires mid-search, every remaining phase degrades to its best
// feasible incumbent and the result is still a valid, contamination-free
// schedule (never an error). The same degradation happens if the
// context is canceled externally (^C, HTTP request gone, ...).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pathdriverwash/pkg/pathdriver"
)

func main() {
	// The Synthetic1 benchmark: its exact wash-path ILPs want several
	// seconds, so a one-second budget visibly bites.
	b, err := pathdriver.BenchmarkByName("Synthetic1")
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	syn, err := pathdriver.Synthesize(ctx, b.Assay, b.Config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: chip %dx%d, wash-free makespan %ds\n",
		b.Name, syn.Chip.W, syn.Chip.H, syn.Schedule.Makespan())

	res, err := pathdriver.OptimizeWash(ctx, syn.Schedule, pathdriver.Options{
		Budget: pathdriver.Budget{
			Total:   time.Second,            // whole-pipeline deadline
			PerPath: 500 * time.Millisecond, // each wash-path ILP
			Window:  10 * time.Second,       // time-window search (clipped by Total)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := pathdriver.VerifyClean(res.Schedule); err != nil {
		log.Fatal(err) // never happens: degraded results are verified too
	}

	fmt.Printf("PDW under 1s budget: %d washes, makespan %ds\n",
		len(res.Washes), res.Schedule.Makespan())
	if res.Stats.Canceled {
		fmt.Println("budget expired: later phases returned their incumbents")
	}
	fmt.Println("solve trace:")
	fmt.Println(res.Stats.Summary())
}
