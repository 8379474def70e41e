// Motivating example: the paper's Figs. 1(c)/2 running assay on its
// hand-built five-device chip. The program prints the chip layout, the
// complete flow paths of the wash-free scheduling (the paper's Table I),
// the contamination analysis with the Type-1/2/3 skip statistics of
// Sec. II-A, and the optimized schedule with wash operations (Fig. 3).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pathdriverwash/internal/contam"
	"pathdriverwash/pkg/pathdriver"
)

func main() {
	a, chip, err := pathdriver.MotivatingExample()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	syn, err := pathdriver.SynthesizeOnChip(ctx, a, chip)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("chip layout (Fig. 2(a) style):")
	fmt.Println(chip.Render())

	fmt.Printf("wash-free scheduling (Fig. 2(b) style), makespan %ds\n", syn.Schedule.Makespan())
	fmt.Println("complete flow paths (Table I style):")
	for _, t := range syn.Schedule.SortedByStart() {
		if !t.Kind.Fluidic() {
			continue
		}
		tag := map[bool]string{true: "#", false: "*"}[t.Kind.String() == "transport"]
		if t.Kind.String() == "waste" {
			tag = "$"
		}
		fmt.Printf("  %s %-14s [%2d,%2d) %s\n", tag, t.ID, t.Start, t.End, t.Path.Describe(chip))
	}

	// Necessity analysis of Sec. II-A: how many contaminated cells can
	// skip washing and why.
	an, err := contam.Analyze(syn.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontamination events: %d, wash requirements: %d\n", len(an.Events), len(an.Requirements))
	for reason, n := range an.Skips {
		fmt.Printf("  %-18s %d events\n", reason, n)
	}

	// PDW: optimized wash paths and time windows (Fig. 3 style).
	res, err := pathdriver.OptimizeWash(ctx, syn.Schedule, pathdriver.Options{
		Budget: pathdriver.Budget{Window: 10 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	ref, err := pathdriver.CompressBase(syn.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Schedule.ComputeMetrics(ref)
	fmt.Printf("\nPDW: %d washes, %d integrated removals, T_assay %ds (wash-free %ds, delay %ds)\n",
		m.NWash, m.IntegratedRemovals, m.TAssay, ref.Makespan(), m.TDelay)
	fmt.Println("wash operations:")
	for _, w := range res.Washes {
		fmt.Printf("  w %-4s %s\n", w.ID, w.Path.Describe(chip))
	}
	fmt.Println("\noptimized schedule (Fig. 3 style):")
	fmt.Println(res.Schedule.Gantt())
}
