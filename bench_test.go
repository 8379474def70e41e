// Package pathdriverwash's root bench suite regenerates every table and
// figure of the paper's evaluation (Sec. IV) plus the ablations called
// out in DESIGN.md:
//
//   - BenchmarkTableII_* run the DAWO baseline and PDW on each of the
//     eight benchmarks and report N_wash, L_wash, T_delay, and T_assay
//     for both methods (the four column groups of Table II);
//   - BenchmarkFig4_* / BenchmarkFig5_* report the average operation
//     waiting time and the total wash time series;
//   - BenchmarkTableI_Motivating regenerates the running example's flow
//     paths; BenchmarkFig3_Motivating its optimized schedule;
//   - BenchmarkAblation_* quantify each design choice on the IVD
//     benchmark (necessity analysis, merging, ψ-integration, path ILP,
//     window MILP);
//   - the Benchmark<Substrate> entries measure the supporting systems
//     (simplex, branch & bound, router, synthesis, contamination
//     analysis, wash-path ILP).
//
// Solver budgets are kept small so the whole suite completes in
// minutes; `cmd/pdwbench` runs the same experiments with the paper's
// larger budgets.
package pathdriverwash

import (
	"fmt"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/contam"
	"pathdriverwash/internal/control"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/demandwash"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/harness"
	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/milp"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
	"pathdriverwash/internal/washpath"
)

// benchOpts keeps per-iteration solver budgets small.
func benchOpts() harness.Options {
	return harness.Options{
		PDW: pdw.Options{
			Budget: solve.Budget{PerPath: time.Second, Window: 3 * time.Second},
		},
	}
}

func runTableII(b *testing.B, name string) {
	bm, err := benchmarks.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := harness.RunBenchmark(bm, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		r := out.Row
		b.ReportMetric(float64(r.DAWONWash), "DAWO-N_wash")
		b.ReportMetric(float64(r.PDWNWash), "PDW-N_wash")
		b.ReportMetric(r.DAWOLWash, "DAWO-L_wash_mm")
		b.ReportMetric(r.PDWLWash, "PDW-L_wash_mm")
		b.ReportMetric(float64(r.DAWOTDelay), "DAWO-T_delay_s")
		b.ReportMetric(float64(r.PDWTDelay), "PDW-T_delay_s")
		b.ReportMetric(float64(r.DAWOTAssay), "DAWO-T_assay_s")
		b.ReportMetric(float64(r.PDWTAssay), "PDW-T_assay_s")
	}
}

// Table II rows (one bench per benchmark).

func BenchmarkTableII_PCR(b *testing.B)          { runTableII(b, "PCR") }
func BenchmarkTableII_IVD(b *testing.B)          { runTableII(b, "IVD") }
func BenchmarkTableII_ProteinSplit(b *testing.B) { runTableII(b, "ProteinSplit") }
func BenchmarkTableII_KinaseAct1(b *testing.B)   { runTableII(b, "Kinase act-1") }
func BenchmarkTableII_KinaseAct2(b *testing.B)   { runTableII(b, "Kinase act-2") }
func BenchmarkTableII_Synthetic1(b *testing.B)   { runTableII(b, "Synthetic1") }
func BenchmarkTableII_Synthetic2(b *testing.B)   { runTableII(b, "Synthetic2") }
func BenchmarkTableII_Synthetic3(b *testing.B)   { runTableII(b, "Synthetic3") }

// Fig. 4 (average waiting time) and Fig. 5 (total wash time) series.

func runFig(b *testing.B, name string, fig4 bool) {
	bm, err := benchmarks.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := harness.RunBenchmark(bm, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if fig4 {
			b.ReportMetric(out.Row.DAWOAvgWait, "DAWO-avg_wait_s")
			b.ReportMetric(out.Row.PDWAvgWait, "PDW-avg_wait_s")
		} else {
			b.ReportMetric(float64(out.Row.DAWOWashTime), "DAWO-wash_time_s")
			b.ReportMetric(float64(out.Row.PDWWashTime), "PDW-wash_time_s")
		}
	}
}

func BenchmarkFig4_PCR(b *testing.B)          { runFig(b, "PCR", true) }
func BenchmarkFig4_IVD(b *testing.B)          { runFig(b, "IVD", true) }
func BenchmarkFig4_ProteinSplit(b *testing.B) { runFig(b, "ProteinSplit", true) }
func BenchmarkFig4_KinaseAct1(b *testing.B)   { runFig(b, "Kinase act-1", true) }
func BenchmarkFig4_KinaseAct2(b *testing.B)   { runFig(b, "Kinase act-2", true) }
func BenchmarkFig4_Synthetic1(b *testing.B)   { runFig(b, "Synthetic1", true) }
func BenchmarkFig4_Synthetic2(b *testing.B)   { runFig(b, "Synthetic2", true) }
func BenchmarkFig4_Synthetic3(b *testing.B)   { runFig(b, "Synthetic3", true) }

func BenchmarkFig5_PCR(b *testing.B)          { runFig(b, "PCR", false) }
func BenchmarkFig5_IVD(b *testing.B)          { runFig(b, "IVD", false) }
func BenchmarkFig5_ProteinSplit(b *testing.B) { runFig(b, "ProteinSplit", false) }
func BenchmarkFig5_KinaseAct1(b *testing.B)   { runFig(b, "Kinase act-1", false) }
func BenchmarkFig5_KinaseAct2(b *testing.B)   { runFig(b, "Kinase act-2", false) }
func BenchmarkFig5_Synthetic1(b *testing.B)   { runFig(b, "Synthetic1", false) }
func BenchmarkFig5_Synthetic2(b *testing.B)   { runFig(b, "Synthetic2", false) }
func BenchmarkFig5_Synthetic3(b *testing.B)   { runFig(b, "Synthetic3", false) }

// Table I: the motivating example's complete flow paths (synthesis of
// the Fig. 2(a) chip and Fig. 2(b) scheduling).
func BenchmarkTableI_Motivating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, chip, err := benchmarks.Motivating()
		if err != nil {
			b.Fatal(err)
		}
		syn, err := synth.SynthesizeOnChip(a, chip)
		if err != nil {
			b.Fatal(err)
		}
		fluidic := 0
		for _, t := range syn.Schedule.Tasks() {
			if t.Kind.Fluidic() {
				fluidic++
			}
		}
		b.ReportMetric(float64(fluidic), "flow_paths")
		b.ReportMetric(float64(syn.Schedule.Makespan()), "washfree_makespan_s")
	}
}

// Fig. 3: the motivating example's optimized schedule with washes.
func BenchmarkFig3_Motivating(b *testing.B) {
	a, chip, err := benchmarks.Motivating()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		syn, err := synth.SynthesizeOnChip(a, chip)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pdw.Optimize(syn.Schedule, benchOpts().PDW)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Washes)), "N_wash")
		b.ReportMetric(float64(res.IntegratedRemovals), "integrated")
		b.ReportMetric(float64(res.Schedule.Makespan()), "T_assay_s")
	}
}

// Ablations on IVD: each disables one PDW technique (DESIGN.md).

func runAblation(b *testing.B, mutate func(*pdw.Options)) {
	bm, err := benchmarks.ByName("IVD")
	if err != nil {
		b.Fatal(err)
	}
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	ref, err := pdw.CompressBase(syn.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts().PDW
	mutate(&opts)
	for i := 0; i < b.N; i++ {
		res, err := pdw.Optimize(syn.Schedule, opts)
		if err != nil {
			b.Fatal(err)
		}
		m := res.Schedule.ComputeMetrics(ref)
		b.ReportMetric(float64(m.NWash), "N_wash")
		b.ReportMetric(m.LWashMM, "L_wash_mm")
		b.ReportMetric(float64(m.TAssay), "T_assay_s")
	}
}

func BenchmarkAblation_Full(b *testing.B) { runAblation(b, func(*pdw.Options) {}) }
func BenchmarkAblation_NoNecessity(b *testing.B) {
	runAblation(b, func(o *pdw.Options) { o.DisableNecessity = true })
}
func BenchmarkAblation_NoMerge(b *testing.B) {
	runAblation(b, func(o *pdw.Options) { o.DisableMerge = true })
}
func BenchmarkAblation_NoIntegration(b *testing.B) {
	runAblation(b, func(o *pdw.Options) { o.DisableIntegration = true })
}
func BenchmarkAblation_HeuristicPaths(b *testing.B) {
	runAblation(b, func(o *pdw.Options) { o.HeuristicPaths = true })
}
func BenchmarkAblation_HeuristicWindows(b *testing.B) {
	runAblation(b, func(o *pdw.Options) { o.HeuristicWindows = true })
}

// Substrate microbenchmarks.

func BenchmarkSubstrateLPSimplex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := lp.NewProblem(20)
		for v := 0; v < 20; v++ {
			p.Objective[v] = float64(-(v%7 + 1))
		}
		for r := 0; r < 15; r++ {
			c := map[int]float64{}
			for v := 0; v < 20; v++ {
				c[v] = float64((v*r)%5 + 1)
			}
			p.AddConstraint(c, lp.LE, float64(40+r), "cap")
		}
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateMILPKnapsack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := milp.NewProblem(0)
		coefs := map[int]float64{}
		for v := 0; v < 16; v++ {
			idx := p.AddBinary()
			p.SetObjective(idx, -float64(v%9+1))
			coefs[idx] = float64(v%6 + 1)
		}
		p.LP.AddConstraint(coefs, lp.LE, 23, "cap")
		if _, err := milp.Solve(p, milp.Options{TimeLimit: 10 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateRouting(b *testing.B) {
	bm, _ := benchmarks.ByName("Synthetic3")
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	chip := syn.Chip
	fp := chip.FlowPorts()[0]
	wp := chip.WastePorts()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.ShortestPath(chip, fp.At, wp.At, route.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateSynthesis(b *testing.B) {
	bm, _ := benchmarks.ByName("IVD")
	for i := 0; i < b.N; i++ {
		if _, err := bm.Synthesize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateContamAnalysis(b *testing.B) {
	bm, _ := benchmarks.ByName("Kinase act-2")
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := contam.Analyze(syn.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateWashPathILP(b *testing.B) {
	bm, _ := benchmarks.ByName("PCR")
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	// A three-cell chain on the first street.
	targets := []geom.Point{geom.Pt(4, 1), geom.Pt(5, 1), geom.Pt(6, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := washpath.Build(syn.Chip, washpath.Request{Targets: targets},
			washpath.Options{Exact: true, TimeLimit: 10 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineDemandDriven measures the related-work heuristic of
// [9] (maximally postponed washes) for comparison against DAWO and PDW.
func BenchmarkBaselineDemandDriven(b *testing.B) {
	bm, _ := benchmarks.ByName("PCR")
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	ref, err := pdw.CompressBase(syn.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := demandwash.Optimize(syn.Schedule, demandwash.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m := res.Schedule.ComputeMetrics(ref)
		b.ReportMetric(float64(m.NWash), "N_wash")
		b.ReportMetric(float64(m.TAssay), "T_assay_s")
	}
}

func BenchmarkSubstrateDAWO(b *testing.B) {
	bm, _ := benchmarks.ByName("PCR")
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dawo.Optimize(syn.Schedule, dawo.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity: the bench fixtures build valid assays.
func TestBenchFixturesValid(t *testing.T) {
	for _, bm := range benchmarks.All() {
		if err := bm.Assay.Validate(); err != nil {
			t.Errorf("%s: %v", bm.Name, err)
		}
	}
}

// BenchmarkControlLayerCost compares the control-layer burden (valve
// switching operations) of DAWO and PDW schedules on PCR: fewer and
// shorter washes also mean fewer valve actuations.
func BenchmarkControlLayerCost(b *testing.B) {
	bm, _ := benchmarks.ByName("PCR")
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	layer := control.Synthesize(syn.Chip)
	dres, err := dawo.Optimize(syn.Schedule, dawo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pres, err := pdw.Optimize(syn.Schedule, benchOpts().PDW)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp, err := control.BuildPlan(layer, dres.Schedule)
		if err != nil {
			b.Fatal(err)
		}
		pp, err := control.BuildPlan(layer, pres.Schedule)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(dp.Switches), "DAWO-switches")
		b.ReportMetric(float64(pp.Switches), "PDW-switches")
		b.ReportMetric(float64(dp.Pins), "DAWO-pins")
		b.ReportMetric(float64(pp.Pins), "PDW-pins")
	}
}

// BenchmarkAblation_Placement measures the synthesis placement hill
// climb's effect on the PCR benchmark (chip communication distance
// propagates into path lengths and makespans).
func BenchmarkAblation_Placement(b *testing.B) {
	bm, _ := benchmarks.ByName("PCR")
	for i := 0; i < b.N; i++ {
		for _, on := range []bool{false, true} {
			cfg := bm.Config
			cfg.OptimizePlacement = on
			syn, err := synth.Synthesize(bm.Assay, cfg)
			if err != nil {
				b.Fatal(err)
			}
			label := "plain"
			if on {
				label = "placed"
			}
			b.ReportMetric(float64(syn.Schedule.Makespan()), label+"-washfree_makespan_s")
		}
	}
}

// Sensitivity sweeps: how the headline metrics respond to the model
// parameters (extension experiments beyond the paper's fixed settings).

// BenchmarkSweep_MergeRadius varies PDW's group-merging radius on IVD.
func BenchmarkSweep_MergeRadius(b *testing.B) {
	bm, _ := benchmarks.ByName("IVD")
	syn, err := bm.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	ref, err := pdw.CompressBase(syn.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, radius := range []int{1, 4, 8} {
			opts := benchOpts().PDW
			opts.MergeRadius = radius
			res, err := pdw.Optimize(syn.Schedule, opts)
			if err != nil {
				b.Fatal(err)
			}
			m := res.Schedule.ComputeMetrics(ref)
			b.ReportMetric(float64(m.NWash), fmt.Sprintf("r%d-N_wash", radius))
			b.ReportMetric(float64(m.TAssay), fmt.Sprintf("r%d-T_assay_s", radius))
		}
	}
}

// BenchmarkSweep_Dissolution varies the contaminant dissolution time t_d
// of Eq. 17 on PCR: longer washes crowd the schedule.
func BenchmarkSweep_Dissolution(b *testing.B) {
	bm, _ := benchmarks.ByName("PCR")
	for i := 0; i < b.N; i++ {
		for _, td := range []float64{1, 2, 4} {
			cfg := bm.Config
			cfg.DissolutionS = td
			syn, err := synth.Synthesize(bm.Assay, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ref, err := pdw.CompressBase(syn.Schedule)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pdw.Optimize(syn.Schedule, benchOpts().PDW)
			if err != nil {
				b.Fatal(err)
			}
			m := res.Schedule.ComputeMetrics(ref)
			b.ReportMetric(float64(m.TotalWashSeconds), fmt.Sprintf("td%g-wash_time_s", td))
			b.ReportMetric(float64(m.TAssay), fmt.Sprintf("td%g-T_assay_s", td))
		}
	}
}

// BenchmarkSweep_Topology compares the street-grid and ring
// architectures on the same protocol.
func BenchmarkSweep_Topology(b *testing.B) {
	bm, _ := benchmarks.ByName("PCR")
	for i := 0; i < b.N; i++ {
		for _, topo := range []synth.Topology{synth.StreetGrid, synth.Ring} {
			cfg := bm.Config
			cfg.Topology = topo
			syn, err := synth.Synthesize(bm.Assay, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ref, err := pdw.CompressBase(syn.Schedule)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pdw.Optimize(syn.Schedule, benchOpts().PDW)
			if err != nil {
				b.Fatal(err)
			}
			m := res.Schedule.ComputeMetrics(ref)
			b.ReportMetric(float64(m.NWash), topo.String()+"-N_wash")
			b.ReportMetric(float64(m.TAssay), topo.String()+"-T_assay_s")
		}
	}
}
