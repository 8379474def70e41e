// Custom assay: an immunoassay-style protocol built through the public
// API with a custom device library, comparing PathDriver-Wash against
// the DAWO baseline on the same synthesized chip — a miniature version
// of the paper's Table II experiment.
package main

import (
	"context"
	"fmt"
	"log"

	"pathdriverwash/pkg/pathdriver"
)

func main() {
	// A chemiluminescence immunoassay sketch (the paper's motivating
	// application domain): capture mix, incubation, wash-sensitive
	// luminescence detections with different agents, final readout.
	a := pathdriver.NewAssay("immuno")
	a.MustAddOp(&pathdriver.Operation{ID: "capture", Kind: pathdriver.Mix, Duration: 3,
		Output: "complex", Reagents: []pathdriver.FluidType{"serum", "antibody-beads"}})
	a.MustAddOp(&pathdriver.Operation{ID: "incubate", Kind: pathdriver.Heat, Duration: 5,
		Output: "complex"})
	a.MustAddOp(&pathdriver.Operation{ID: "label", Kind: pathdriver.Mix, Duration: 2,
		Output: "labelled", Reagents: []pathdriver.FluidType{"lumi-agent-1"}})
	a.MustAddOp(&pathdriver.Operation{ID: "read1", Kind: pathdriver.Detect, Duration: 3,
		Output: "labelled"})
	a.MustAddOp(&pathdriver.Operation{ID: "relabel", Kind: pathdriver.Mix, Duration: 2,
		Output: "relabelled", Reagents: []pathdriver.FluidType{"lumi-agent-2"}})
	a.MustAddOp(&pathdriver.Operation{ID: "read2", Kind: pathdriver.Detect, Duration: 3,
		Output: "relabelled"})
	a.MustAddEdge("capture", "incubate")
	a.MustAddEdge("incubate", "label")
	a.MustAddEdge("label", "read1")
	a.MustAddEdge("read1", "relabel")
	a.MustAddEdge("relabel", "read2")

	ctx := context.Background()
	syn, err := pathdriver.Synthesize(ctx, a, pathdriver.SynthConfig{
		Devices: []pathdriver.DeviceSpec{
			{Kind: "mixer", Count: 2},
			{Kind: "heater", Count: 1},
			{Kind: "detector", Count: 1}, // one detector: reads share it
		},
		FlowPorts: 3, WastePorts: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	ref, err := pathdriver.CompressBase(syn.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("immunoassay on a %dx%d chip, wash-free makespan %ds\n\n",
		syn.Chip.W, syn.Chip.H, ref.Makespan())

	dawoRes, err := pathdriver.Baseline(ctx, syn.Schedule, pathdriver.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pdwRes, err := pathdriver.OptimizeWash(ctx, syn.Schedule, pathdriver.Options{})
	if err != nil {
		log.Fatal(err)
	}

	dm := dawoRes.Schedule.ComputeMetrics(ref)
	pm := pdwRes.Schedule.ComputeMetrics(ref)
	fmt.Printf("%-8s %8s %12s %10s %10s %10s\n", "method", "N_wash", "L_wash(mm)", "T_delay", "T_assay", "wash-time")
	fmt.Printf("%-8s %8d %12.0f %9ds %9ds %9ds\n", "DAWO",
		dm.NWash, dm.LWashMM, dm.TDelay, dm.TAssay, dm.TotalWashSeconds)
	fmt.Printf("%-8s %8d %12.0f %9ds %9ds %9ds\n", "PDW",
		pm.NWash, pm.LWashMM, pm.TDelay, pm.TAssay, pm.TotalWashSeconds)

	fmt.Printf("\nPDW integrated %d excess removals into washes (ψ=1)\n", pm.IntegratedRemovals)
	fmt.Println("\nPDW schedule:")
	fmt.Println(pdwRes.Schedule.Gantt())
}
