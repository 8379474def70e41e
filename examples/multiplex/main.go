// Multiplexing: three independent assay lanes merged onto one chip (the
// structure of the paper's Kinase act-2 benchmark, built through the
// public API). The lanes share a buffer reagent — harmless residue the
// Type-2 analysis never washes — while their distinct samples force
// washes whenever lanes share channels.
package main

import (
	"context"
	"fmt"
	"log"

	"pathdriverwash/pkg/pathdriver"
)

func lane(name string, sample pathdriver.FluidType) *pathdriver.Assay {
	a := pathdriver.NewAssay(name)
	a.MustAddOp(&pathdriver.Operation{
		ID: "mix", Kind: pathdriver.Mix, Duration: 2,
		Output:   pathdriver.FluidType(name + "-complex"),
		Reagents: []pathdriver.FluidType{sample, "assay-buffer"},
	})
	a.MustAddOp(&pathdriver.Operation{
		ID: "incubate", Kind: pathdriver.Heat, Duration: 4,
		Output: pathdriver.FluidType(name + "-complex"),
	})
	a.MustAddOp(&pathdriver.Operation{
		ID: "read", Kind: pathdriver.Detect, Duration: 3,
		Output: pathdriver.FluidType(name + "-complex"),
	})
	a.MustAddEdge("mix", "incubate")
	a.MustAddEdge("incubate", "read")
	return a
}

func main() {
	panel, err := pathdriver.MergeAssays("panel",
		lane("lane1", "serum-1"),
		lane("lane2", "serum-2"),
		lane("lane3", "serum-3"),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multiplexed panel: %d operations, %d dependencies\n",
		len(panel.Ops()), len(panel.Edges()))

	ctx := context.Background()
	syn, err := pathdriver.Synthesize(ctx, panel, pathdriver.SynthConfig{
		Devices: []pathdriver.DeviceSpec{
			{Kind: "mixer", Count: 2},
			{Kind: "heater", Count: 2},
			{Kind: "detector", Count: 2},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ref, err := pathdriver.CompressBase(syn.Schedule)
	if err != nil {
		log.Fatal(err)
	}

	res, err := pathdriver.OptimizeWash(ctx, syn.Schedule, pathdriver.Options{})
	if err != nil {
		log.Fatal(err)
	}
	m := res.Schedule.ComputeMetrics(ref)
	fmt.Printf("PDW: %d washes, %d integrated removals, %.0f mm wash path, "+
		"%d s assay (%d s wash-free)\n",
		m.NWash, m.IntegratedRemovals, m.LWashMM, m.TAssay, ref.Makespan())

	// The control layer shows what the lanes cost in valve actuations.
	layer := pathdriver.SynthesizeControl(syn.Chip)
	plan, err := pathdriver.PlanControl(layer, res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("control layer: %d valves, %d pins after sharing, %d switch operations\n",
		len(layer.Valves), plan.Pins, plan.Switches)
}
