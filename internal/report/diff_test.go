package report

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// diffBenchFile builds a minimal valid baseline for diff tests.
func diffBenchFile() *BenchFile {
	return &BenchFile{
		SchemaVersion:    BenchSchemaVersion,
		GeneratedAt:      "2026-08-06T10:00:00Z",
		GoVersion:        "go1.22.0",
		TotalWallSeconds: 20,
		Benchmarks: []BenchResult{{
			Name: "PCR", Ops: 7, Devices: 5, Tasks: 15,
			DAWO: MethodResult{NWash: 11, LWashMM: 150, TDelaySeconds: 41, TAssaySeconds: 90, WallSeconds: 0.2},
			PDW: MethodResult{NWash: 7, LWashMM: 93, TDelaySeconds: 26, TAssaySeconds: 75, WallSeconds: 10,
				WindowsOptimal: true},
		}},
	}
}

func clone(f *BenchFile) *BenchFile {
	c := *f
	c.Benchmarks = append([]BenchResult(nil), f.Benchmarks...)
	return &c
}

func findDiff(t *testing.T, r *DiffReport, bench, method, metric string) MetricDiff {
	t.Helper()
	for _, d := range r.Diffs {
		if d.Benchmark == bench && d.Method == method && d.Metric == metric {
			return d
		}
	}
	t.Fatalf("no diff entry for %s/%s/%s", bench, method, metric)
	return MetricDiff{}
}

func TestDiffSelfIsUnchanged(t *testing.T) {
	f := diffBenchFile()
	r, err := Diff(f, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range r.Diffs {
		if d.Verdict != VerdictUnchanged {
			t.Errorf("self-diff %s/%s/%s = %s, want unchanged", d.Benchmark, d.Method, d.Metric, d.Verdict)
		}
	}
	if v := r.Gate(0.2); len(v) != 0 {
		t.Errorf("self-diff gate violations: %+v", v)
	}
	if !strings.Contains(r.Table(), "(no changes)") {
		t.Errorf("self-diff table missing '(no changes)':\n%s", r.Table())
	}
}

func TestDiffRefusesQuickVsFull(t *testing.T) {
	full := diffBenchFile()
	quick := clone(full)
	quick.Quick = true
	if _, err := Diff(full, quick); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("quick-vs-full diff error = %v, want refusal", err)
	}
	if _, err := Diff(quick, full); err == nil {
		t.Error("quick baseline vs full run must also be refused")
	}
	// Quick against quick is fine: same measurement grade.
	if _, err := Diff(quick, quick); err != nil {
		t.Errorf("quick-vs-quick diff: %v", err)
	}
	if _, err := Diff(nil, full); err == nil {
		t.Error("nil bench file must be refused")
	}
}

// TestDiffInjectedRegression is the acceptance case: perturbing a
// BenchFile in memory must produce a regressed verdict that the
// baseline gate turns into a non-empty violation list (non-zero exit
// in cmd/pdwbench).
func TestDiffInjectedRegression(t *testing.T) {
	old := diffBenchFile()
	new := clone(old)
	new.Benchmarks[0].PDW.NWash = 9          // +2 washes: correctness regression
	new.Benchmarks[0].PDW.LWashMM = 80       // improvement at the same time
	new.Benchmarks[0].PDW.WallSeconds = 10.5 // +5%: below the 10% threshold

	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "n_wash"); d.Verdict != VerdictRegressed {
		t.Errorf("n_wash verdict = %s, want regressed", d.Verdict)
	}
	if d := findDiff(t, r, "PCR", "pdw", "l_wash_mm"); d.Verdict != VerdictImproved {
		t.Errorf("l_wash_mm verdict = %s, want improved", d.Verdict)
	}
	if d := findDiff(t, r, "PCR", "pdw", "wall_s"); d.Verdict != VerdictUnchanged {
		t.Errorf("wall_s +5%% verdict = %s, want unchanged (threshold mode)", d.Verdict)
	}
	viol := r.Gate(0.2)
	if len(viol) != 1 || viol[0].Metric != "n_wash" {
		t.Fatalf("gate violations = %+v, want exactly the n_wash regression", viol)
	}
	if !strings.Contains(r.Markdown(), "**regressed**") {
		t.Errorf("markdown does not flag the regression:\n%s", r.Markdown())
	}
}

func TestDiffWallThresholdMode(t *testing.T) {
	old := diffBenchFile()
	new := clone(old)
	new.Benchmarks[0].PDW.WallSeconds = 15 // +50%
	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	d := findDiff(t, r, "PCR", "pdw", "wall_s")
	if d.Verdict != VerdictRegressed || d.significant() {
		t.Errorf("wall_s +50%%: verdict=%s significant=%v, want regressed via threshold", d.Verdict, d.significant())
	}
	if v := r.Gate(0.2); len(v) != 1 || v[0].Metric != "wall_s" {
		t.Errorf("gate(20%%) = %+v, want the wall regression", v)
	}
	// A permissive gate lets pure wall noise through.
	if v := r.Gate(1.0); len(v) != 0 {
		t.Errorf("gate(100%%) = %+v, want none", v)
	}
}

func TestDiffSampleMode(t *testing.T) {
	old := diffBenchFile()
	new := clone(old)
	old.Benchmarks[0].PDW.WallSamples = []float64{10.0, 10.1, 10.2, 10.3, 10.4}
	nb := new.Benchmarks[0]
	nb.PDW.WallSamples = []float64{12.0, 12.1, 12.2, 12.3, 12.4} // clearly slower
	new.Benchmarks[0] = nb

	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	d := findDiff(t, r, "PCR", "pdw", "wall_s")
	if d.Verdict != VerdictRegressed {
		t.Errorf("separated samples: verdict = %s, want regressed", d.Verdict)
	}
	if !d.significant() || d.P >= 0.05 || d.Samples != 5 {
		t.Errorf("separated samples: P=%g n=%d, want exact p<0.05 with n=5", d.P, d.Samples)
	}
	if d.Old != 10.2 || d.New != 12.2 {
		t.Errorf("sample mode must compare medians: old=%g new=%g", d.Old, d.New)
	}

	// Overlapping samples: no significance, hence unchanged — even
	// though the single-shot values differ by far more than 10%.
	nb.PDW.WallSamples = []float64{10.1, 9.9, 10.3, 10.0, 10.2}
	nb.PDW.WallSeconds = 30
	new.Benchmarks[0] = nb
	r, err = Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "wall_s"); d.Verdict != VerdictUnchanged {
		t.Errorf("overlapping samples: verdict = %s, want unchanged", d.Verdict)
	}

	// Significant but microscopic shifts stay below MinEffect.
	nb.PDW.WallSamples = []float64{10.205, 10.206, 10.207, 10.208, 10.209}
	new.Benchmarks[0] = nb
	r, err = Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "wall_s"); d.Verdict != VerdictUnchanged {
		t.Errorf("sub-MinEffect shift: verdict = %s (P=%g, rel=%g), want unchanged", d.Verdict, d.P, d.RelDelta)
	}
}

// TestDiffEmptySamplesFallBackToThreshold covers the schema-v1
// compatibility contract: old files without wall_samples diff cleanly
// against new files that have them.
func TestDiffEmptySamplesFallBackToThreshold(t *testing.T) {
	old := diffBenchFile() // no samples
	new := clone(old)
	nb := new.Benchmarks[0]
	nb.PDW.WallSamples = []float64{15, 15.1, 15.2}
	nb.PDW.WallSeconds = 15 // +50% single-shot
	new.Benchmarks[0] = nb
	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	d := findDiff(t, r, "PCR", "pdw", "wall_s")
	if d.significant() {
		t.Errorf("one-sided samples must fall back to threshold mode (P=%g)", d.P)
	}
	if d.Verdict != VerdictRegressed {
		t.Errorf("verdict = %s, want regressed at +50%%", d.Verdict)
	}
	if d.New != 15.1 {
		t.Errorf("threshold mode must still prefer the sample median: new=%g, want 15.1", d.New)
	}

	// Below minTestSamples on both sides a significance test could
	// never fire at alpha=0.05, so the threshold rule decides.
	old2 := clone(old)
	ob := old2.Benchmarks[0]
	ob.PDW.WallSamples = []float64{10, 10.1, 10.2}
	old2.Benchmarks[0] = ob
	r, err = Diff(old2, new)
	if err != nil {
		t.Fatal(err)
	}
	d = findDiff(t, r, "PCR", "pdw", "wall_s")
	if d.significant() || d.Verdict != VerdictRegressed {
		t.Errorf("3v3 samples: significant=%v verdict=%s, want threshold-mode regression", d.significant(), d.Verdict)
	}
}

// TestDiffBudgetLimitedQuality: solution-quality metrics only gate
// exactly while the recorded solves completed within budget. A
// truncated search (canceled, or a window MILP without an optimality
// proof) leaves a load-dependent incumbent, so small moves are noise —
// the observed failure mode of gating two quick sweeps against each
// other.
func TestDiffBudgetLimitedQuality(t *testing.T) {
	old := diffBenchFile()
	old.Benchmarks[0].PDW.WindowsOptimal = false // MILP hit its budget
	new := clone(old)
	nb := new.Benchmarks[0]
	nb.PDW.TAssaySeconds = 78 // +4%: budget noise, below the 10% threshold
	new.Benchmarks[0] = nb

	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "t_assay_s"); d.Verdict != VerdictUnchanged {
		t.Errorf("unproven MILP +4%% t_assay: verdict = %s, want unchanged", d.Verdict)
	}
	if v := r.Gate(0.2); len(v) != 0 {
		t.Errorf("gate = %+v, want none for budget noise", v)
	}

	// Beyond the threshold it is a regression again, unproven or not.
	nb.PDW.TAssaySeconds = 95 // +27%
	new.Benchmarks[0] = nb
	r, err = Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "t_assay_s"); d.Verdict != VerdictRegressed {
		t.Errorf("unproven MILP +27%% t_assay: verdict = %s, want regressed", d.Verdict)
	}
	if v := r.Gate(0.2); len(v) != 1 || v[0].Metric != "t_assay_s" {
		t.Errorf("gate = %+v, want the t_assay_s regression", v)
	}

	// ψ-integration re-routes washes around the scheduled windows, so
	// with optimality unproven even l_wash_mm drifts run to run: small
	// moves are noise, large ones still regress.
	nb.PDW.TAssaySeconds = 75
	nb.PDW.LWashMM = 96 // 93 -> 96: +3.2%
	new.Benchmarks[0] = nb
	r, err = Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "l_wash_mm"); d.Verdict != VerdictUnchanged {
		t.Errorf("unproven MILP +3%% l_wash: verdict = %s, want unchanged", d.Verdict)
	}
	nb.PDW.LWashMM = 120 // +29%
	new.Benchmarks[0] = nb
	r, err = Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "l_wash_mm"); d.Verdict != VerdictRegressed {
		t.Errorf("unproven MILP +29%% l_wash: verdict = %s, want regressed", d.Verdict)
	}

	// DAWO has no window MILP: its quality metrics stay exactly gated
	// unless its own search was canceled.
	nb.PDW.LWashMM = 93
	nb.DAWO.NWash = 12 // +1 wash, uncanceled
	new.Benchmarks[0] = nb
	r, err = Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "dawo", "n_wash"); d.Verdict != VerdictRegressed {
		t.Errorf("+1 DAWO wash: verdict = %s, want regressed", d.Verdict)
	}

	// A canceled search loosens every quality metric of that method:
	// +9% washes is below the threshold, +36% is not.
	old2 := diffBenchFile()
	old2.Benchmarks[0].DAWO.Canceled = true
	new2 := clone(old2)
	nb2 := new2.Benchmarks[0]
	nb2.DAWO.NWash = 12 // 11 -> 12: +9.1%
	new2.Benchmarks[0] = nb2
	r, err = Diff(old2, new2)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "dawo", "n_wash"); d.Verdict != VerdictUnchanged {
		t.Errorf("canceled DAWO +9%% n_wash: verdict = %s, want unchanged", d.Verdict)
	}
	nb2.DAWO.NWash = 15
	new2.Benchmarks[0] = nb2
	r, err = Diff(old2, new2)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "dawo", "n_wash"); d.Verdict != VerdictRegressed {
		t.Errorf("canceled DAWO +36%% n_wash: verdict = %s, want regressed", d.Verdict)
	}
}

func TestDiffMissingBenchmarks(t *testing.T) {
	old := diffBenchFile()
	old.Benchmarks = append(old.Benchmarks, BenchResult{
		Name: "IVD", Ops: 12, Devices: 9, Tasks: 24,
		DAWO: MethodResult{NWash: 20, LWashMM: 303, TAssaySeconds: 126, WallSeconds: 1},
		PDW:  MethodResult{NWash: 14, LWashMM: 200, TAssaySeconds: 100, WallSeconds: 5},
	})
	new := diffBenchFile() // IVD gone
	new.Benchmarks = append(new.Benchmarks, BenchResult{
		Name: "Fresh", Ops: 3, Devices: 2, Tasks: 5,
		DAWO: MethodResult{NWash: 1, LWashMM: 10, TAssaySeconds: 30, WallSeconds: 0.1},
		PDW:  MethodResult{NWash: 1, LWashMM: 8, TAssaySeconds: 28, WallSeconds: 0.3},
	})

	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.OnlyOld) != 1 || r.OnlyOld[0] != "IVD" {
		t.Errorf("OnlyOld = %v, want [IVD]", r.OnlyOld)
	}
	if len(r.OnlyNew) != 1 || r.OnlyNew[0] != "Fresh" {
		t.Errorf("OnlyNew = %v, want [Fresh]", r.OnlyNew)
	}
	if d := findDiff(t, r, "IVD", "pdw", "n_wash"); d.Verdict != VerdictMissing {
		t.Errorf("IVD verdict = %s, want missing", d.Verdict)
	}
	// A benchmark that vanished from the new run fails the gate once;
	// a newly added benchmark does not.
	viol := r.Gate(0.2)
	if len(viol) != 1 || viol[0].Benchmark != "IVD" || viol[0].Verdict != VerdictMissing {
		t.Errorf("gate = %+v, want one lost-coverage violation for IVD", viol)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old := diffBenchFile()
	old.Benchmarks[0].PDW.TDelaySeconds = 0
	old.Benchmarks[0].PDW.NWash = 0

	// Zero stays zero: unchanged, no division blow-up.
	same := clone(old)
	r, err := Diff(old, same)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "t_delay_s"); d.Verdict != VerdictUnchanged || d.RelDelta != 0 {
		t.Errorf("0->0: verdict=%s rel=%g, want unchanged/0", d.Verdict, d.RelDelta)
	}

	// Zero baseline growing: an infinite relative increase, classified
	// as regressed and gated when it is a correctness metric.
	worse := clone(old)
	worse.Benchmarks[0].PDW.TDelaySeconds = 3
	worse.Benchmarks[0].PDW.NWash = 2
	r, err = Diff(old, worse)
	if err != nil {
		t.Fatal(err)
	}
	d := findDiff(t, r, "PCR", "pdw", "n_wash")
	if d.Verdict != VerdictRegressed || !math.IsInf(d.RelDelta, 1) {
		t.Errorf("0->2 n_wash: verdict=%s rel=%g, want regressed/+inf", d.Verdict, d.RelDelta)
	}
	viol := r.Gate(0.2)
	found := false
	for _, v := range viol {
		if v.Metric == "n_wash" {
			found = true
		}
	}
	if !found {
		t.Errorf("gate %+v misses the zero-baseline n_wash regression", viol)
	}
	if !strings.Contains(r.Table(), "+inf%") {
		t.Errorf("table does not render the infinite delta:\n%s", r.Table())
	}
}

// TestDiffReportConcurrentReads drives the read-only report helpers
// from many goroutines; the race gate (`go test -race
// ./internal/report`) turns any shared-state mutation into a failure.
func TestDiffReportConcurrentReads(t *testing.T) {
	old := diffBenchFile()
	new := clone(old)
	new.Benchmarks[0].PDW.NWash = 9
	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = r.Table()
				_ = r.Markdown()
				_ = r.Gate(0.2)
				_ = r.Counts()
			}
		}()
	}
	wg.Wait()
}

// TestQualityThresholdCanceled pins the cancellation half of
// qualityThreshold's contract, one row per Canceled combination: a
// canceled search on EITHER side of the diff makes that method's
// quality numbers best-effort incumbents, so the gate loosens to
// WallThreshold instead of flagging exact-mode noise; with neither
// side canceled the exact gate (0) applies. The method column matters
// only for the PDW-specific WindowsOptimal rule, which both rows here
// hold satisfied.
func TestQualityThresholdCanceled(t *testing.T) {
	opts := DiffOptions{}.withDefaults()
	cases := []struct {
		name                     string
		oldCanceled, newCanceled bool
		want                     float64
	}{
		{"neither-canceled", false, false, 0},
		{"baseline-canceled", true, false, opts.WallThreshold},
		{"candidate-canceled", false, true, opts.WallThreshold},
		{"both-canceled", true, true, opts.WallThreshold},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := &MethodResult{NWash: 10, Canceled: tc.oldCanceled, WindowsOptimal: true}
			new := &MethodResult{NWash: 10, Canceled: tc.newCanceled, WindowsOptimal: true}
			for _, method := range []string{"dawo", "pdw"} {
				if got := qualityThreshold(opts, method, old, new); got != tc.want {
					t.Errorf("%s: qualityThreshold = %v, want %v", method, got, tc.want)
				}
			}
		})
	}
}

// TestDiffCanceledCandidateNoFalseVerdicts runs the candidate-canceled
// case end to end: a run whose solver hit its budget reports a
// slightly worse AND a slightly better incumbent on different metrics,
// and neither may surface as a verdict — a false regression would
// block an unrelated change, a false improvement would credit it.
func TestDiffCanceledCandidateNoFalseVerdicts(t *testing.T) {
	old := diffBenchFile()
	new := clone(old)
	nb := new.Benchmarks[0]
	nb.PDW.Canceled = true
	nb.PDW.NWash = 7          // unchanged
	nb.PDW.LWashMM = 97       // 93 -> 97: +4.3%, inside the loosened gate
	nb.PDW.TAssaySeconds = 72 // 75 -> 72: -4%, also inside
	new.Benchmarks[0] = nb

	r, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "l_wash_mm"); d.Verdict != VerdictUnchanged {
		t.Errorf("canceled candidate +4%% l_wash: verdict = %s, want unchanged", d.Verdict)
	}
	if d := findDiff(t, r, "PCR", "pdw", "t_assay_s"); d.Verdict != VerdictUnchanged {
		t.Errorf("canceled candidate -4%% t_assay: verdict = %s, want unchanged (no false improvement)", d.Verdict)
	}
	if v := r.Gate(0.2); len(v) != 0 {
		t.Errorf("gate = %+v, want none for canceled-candidate noise", v)
	}

	// The loosened gate is not a blank check: a genuinely large
	// regression on a canceled candidate still regresses.
	nb.PDW.LWashMM = 130 // +40%
	new.Benchmarks[0] = nb
	r, err = Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if d := findDiff(t, r, "PCR", "pdw", "l_wash_mm"); d.Verdict != VerdictRegressed {
		t.Errorf("canceled candidate +40%% l_wash: verdict = %s, want regressed", d.Verdict)
	}
}
