// Budgeted: run PathDriver-Wash under a wall-clock budget and inspect
// the structured solve telemetry. The whole pipeline — synthesis, wash
// paths, the time-window search, verification — shares one deadline;
// when it expires mid-search, every remaining phase degrades to its
// best feasible incumbent and the result is still a valid,
// contamination-free schedule (never an error). The same degradation
// happens if the context is canceled externally (^C, HTTP request
// gone, ...).
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"log"
	"time"

	"pathdriverwash/pkg/pathdriver"
)

// overrunDiamond is a reagent-dense generated assay (the corpus draw
// overrun-diamond of seed 9) as a pdw.v1 assay document. Its exact
// time-window search wants about 9 s, so a one-second budget visibly
// bites; the Table II benchmarks finish well inside one.
//
//go:embed overrun-diamond.json
var overrunDiamond []byte

func main() {
	var doc pathdriver.AssayDocument
	if err := json.Unmarshal(overrunDiamond, &doc); err != nil {
		log.Fatal(err)
	}
	res, err := pathdriver.Solve(context.Background(), pathdriver.Request{
		Assay: doc,
		Options: pathdriver.Options{
			Budget: pathdriver.Budget{
				Total:   time.Second,            // whole-pipeline deadline
				PerPath: 500 * time.Millisecond, // each wash-path search
				Window:  10 * time.Second,       // time-window search (clipped by Total)
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := pathdriver.VerifyClean(res.Schedule); err != nil {
		log.Fatal(err) // never happens: degraded results are verified too
	}

	fmt.Printf("%s: chip %dx%d, wash-free makespan %ds\n",
		doc.Name, res.Reference.Chip.W, res.Reference.Chip.H, res.Reference.Makespan())
	fmt.Printf("PDW under 1s budget: %d washes, makespan %ds\n",
		res.Washes, res.Schedule.Makespan())
	if res.Stats.Canceled {
		fmt.Println("budget expired: later phases returned their incumbents")
	}
	fmt.Println("solve trace:")
	fmt.Println(res.Stats.Summary())
}
