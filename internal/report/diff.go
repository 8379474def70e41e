package report

import (
	"fmt"
	"math"
	"strings"

	"pathdriverwash/internal/stats"
)

// Verdict classifies one (benchmark, method, metric) pair of a diff.
type Verdict string

const (
	// VerdictImproved: the metric got significantly better (lower).
	VerdictImproved Verdict = "improved"
	// VerdictRegressed: the metric got significantly worse (higher).
	VerdictRegressed Verdict = "regressed"
	// VerdictUnchanged: within noise / below the change threshold.
	VerdictUnchanged Verdict = "unchanged"
	// VerdictMissing: the benchmark exists in only one of the files.
	VerdictMissing Verdict = "missing"
)

// DiffOptions tunes the statistical decision rules of Diff.
type DiffOptions struct {
	// Alpha is the significance level for the Mann–Whitney U test when
	// both sides carry wall-time samples (default 0.05).
	Alpha float64
	// WallThreshold is the minimum relative wall-time change to report
	// in threshold mode, i.e. when either side has no samples (default
	// 0.10 — single-shot wall times are noisy). It doubles as the
	// threshold for budget-limited solution-quality pairs (see
	// qualityThreshold / makespanThreshold).
	WallThreshold float64
	// MinEffect is the minimum relative median shift required alongside
	// statistical significance in sample mode (default 0.005); it keeps
	// microscopic-but-significant timing shifts out of the verdicts.
	MinEffect float64
	// QualityOnly drops the wall_s metric from the comparison, leaving
	// only the deterministic solution-quality metrics. Two runs of the
	// same sweep (e.g. a sharded sweep merged back together versus the
	// unsharded run) must then diff as fully unchanged.
	QualityOnly bool
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.WallThreshold <= 0 {
		o.WallThreshold = 0.10
	}
	if o.MinEffect <= 0 {
		o.MinEffect = 0.005
	}
	return o
}

// minTestSamples is the smallest per-side sample count for which the
// Mann–Whitney significance test is used. Below 4 samples per side the
// exact two-sided p-value can never drop under alpha = 0.05 (the best
// case at n=3 is 2/20 = 0.1), so "sample mode" would silently classify
// every wall-time change as unchanged; tiny sample sets fall back to
// the fixed-threshold rule on medians instead.
const minTestSamples = 4

// correctnessMetrics are the solution-quality metrics a perf gate must
// never let regress: more washes, longer wash routes, or a longer assay
// mean the optimizer found a worse schedule, not just a slower solve.
var correctnessMetrics = map[string]bool{
	"n_wash": true, "l_wash_mm": true, "t_assay_s": true,
}

// diffMetrics defines the compared metrics in display order. All are
// lower-is-better. Threshold yields the relative change below which a
// pair is "unchanged" in threshold mode, given the compared results:
// solution-quality metrics count any change while the solves completed
// within budget, and loosen to WallThreshold when the recorded search
// was truncated (the numbers are then best-effort, not deterministic).
var diffMetrics = []struct {
	name      string
	value     func(*MethodResult) float64
	samples   func(*MethodResult) []float64
	threshold func(o DiffOptions, method string, old, new *MethodResult) float64
}{
	{"n_wash", func(m *MethodResult) float64 { return float64(m.NWash) }, nil, qualityThreshold},
	{"l_wash_mm", func(m *MethodResult) float64 { return m.LWashMM }, nil, qualityThreshold},
	{"t_delay_s", func(m *MethodResult) float64 { return float64(m.TDelaySeconds) }, nil, qualityThreshold},
	{"t_assay_s", func(m *MethodResult) float64 { return float64(m.TAssaySeconds) }, nil, qualityThreshold},
	{"wall_s", func(m *MethodResult) float64 { return m.WallSeconds },
		func(m *MethodResult) []float64 { return m.WallSamples },
		func(o DiffOptions, _ string, _, _ *MethodResult) float64 { return o.WallThreshold }},
}

// qualityThreshold gates the solution-quality metrics. Their solvers
// are deterministic at fixed budgets, so any change counts (threshold
// 0) — unless the recorded result is budget-limited, in which case it
// is whatever incumbent the cutoff left behind, varies with machine
// load, and only moves beyond WallThreshold count. Budget-limited
// means either search was canceled, or — for PDW — the time-window
// MILP stopped without proving optimality: the makespan metrics read
// the incumbent directly, and ψ-integration re-routes washes around
// the scheduled windows, so even n_wash/l_wash_mm inherit its
// nondeterminism (observed as run-to-run ±mm drifts in quick sweeps).
func qualityThreshold(o DiffOptions, method string, old, new *MethodResult) float64 {
	if old.Canceled || new.Canceled {
		return o.WallThreshold
	}
	if method == "pdw" && (!old.WindowsOptimal || !new.WindowsOptimal) {
		return o.WallThreshold
	}
	return 0
}

// MetricDiff is the comparison of one metric of one method on one
// benchmark between two bench files.
type MetricDiff struct {
	Benchmark string
	Method    string // "dawo" or "pdw"
	Metric    string // schema field name: "n_wash", "wall_s", ...
	// Old and New are the compared values; with samples present they
	// are the sample medians, otherwise the single recorded values.
	Old, New float64
	// RelDelta is (New-Old)/Old; +Inf when Old is zero and New is not,
	// 0 when both are zero.
	RelDelta float64
	Verdict  Verdict
	// P is the Mann–Whitney two-sided p-value when both sides carried
	// samples, NaN in threshold mode.
	P float64
	// Samples is min(len(old), len(new)) sample count, 0 in threshold
	// mode.
	Samples int
}

// significant reports whether the pair was decided by a sample-based
// significance test rather than a fixed threshold.
func (d MetricDiff) significant() bool { return !math.IsNaN(d.P) }

// DiffReport is the outcome of comparing two bench files.
type DiffReport struct {
	// OldGeneratedAt / NewGeneratedAt identify the compared files.
	OldGeneratedAt, NewGeneratedAt string
	// Quick records that both files came from -quick sweeps.
	Quick bool
	// Opts are the decision rules the diff was computed under.
	Opts DiffOptions
	// Diffs holds one entry per (benchmark, method, metric), benchmarks
	// in old-file order (new-only benchmarks appended), metrics in
	// diffMetrics order. Missing benchmarks contribute one entry per
	// method+metric with VerdictMissing.
	Diffs []MetricDiff
	// OnlyOld / OnlyNew list benchmark names present in exactly one
	// file (failures count as absent).
	OnlyOld, OnlyNew []string
}

// Diff compares two bench files with default options; see DiffOpts.
func Diff(old, new *BenchFile) (*DiffReport, error) {
	return DiffOpts(old, new, DiffOptions{})
}

// DiffOpts compares an old (baseline) and new bench file metric by
// metric. Each (benchmark, method, metric) pair is classified as
// improved, regressed, or unchanged — by a Mann–Whitney U test on the
// per-iteration samples when both sides carry them, by a fixed
// relative threshold otherwise — or as missing when the benchmark
// completed in only one file. Quick-mode files are only comparable to
// other quick-mode files: reduced solver budgets change what the
// numbers mean, so mixing grades is refused outright.
func DiffOpts(old, new *BenchFile, opts DiffOptions) (*DiffReport, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("diff: nil bench file")
	}
	if old.Quick != new.Quick {
		return nil, fmt.Errorf("diff: refusing to compare a quick run against a full run (old quick=%v, new quick=%v): quick numbers are smoke-test grade", old.Quick, new.Quick)
	}
	opts = opts.withDefaults()
	rep := &DiffReport{
		OldGeneratedAt: old.GeneratedAt,
		NewGeneratedAt: new.GeneratedAt,
		Quick:          old.Quick,
		Opts:           opts,
	}

	oldBy := benchIndex(old)
	newBy := benchIndex(new)
	names := make([]string, 0, len(old.Benchmarks)+len(new.Benchmarks))
	for _, b := range old.Benchmarks {
		names = append(names, b.Name)
	}
	for _, b := range new.Benchmarks {
		if _, ok := oldBy[b.Name]; !ok {
			names = append(names, b.Name)
		}
	}

	for _, name := range names {
		ob, inOld := oldBy[name]
		nb, inNew := newBy[name]
		if !inOld || !inNew {
			if inOld {
				rep.OnlyOld = append(rep.OnlyOld, name)
			} else {
				rep.OnlyNew = append(rep.OnlyNew, name)
			}
			for _, method := range []string{"dawo", "pdw"} {
				for _, m := range diffMetrics {
					if opts.QualityOnly && m.name == "wall_s" {
						continue
					}
					rep.Diffs = append(rep.Diffs, MetricDiff{
						Benchmark: name, Method: method, Metric: m.name,
						Verdict: VerdictMissing, P: math.NaN(),
					})
				}
			}
			continue
		}
		for _, pair := range []struct {
			method   string
			old, new *MethodResult
		}{
			{"dawo", &ob.DAWO, &nb.DAWO},
			{"pdw", &ob.PDW, &nb.PDW},
		} {
			for _, m := range diffMetrics {
				if opts.QualityOnly && m.name == "wall_s" {
					continue
				}
				d := MetricDiff{Benchmark: name, Method: pair.method, Metric: m.name, P: math.NaN()}
				var oldSamples, newSamples []float64
				if m.samples != nil {
					oldSamples, newSamples = m.samples(pair.old), m.samples(pair.new)
				}
				// Use the sample median whenever samples exist on a side:
				// it is a better location estimate than the single shot
				// even when the counterpart side has none.
				d.Old = m.value(pair.old)
				if len(oldSamples) > 0 {
					d.Old = stats.Median(oldSamples)
				}
				d.New = m.value(pair.new)
				if len(newSamples) > 0 {
					d.New = stats.Median(newSamples)
				}
				d.RelDelta = relDelta(d.Old, d.New)
				if len(oldSamples) >= minTestSamples && len(newSamples) >= minTestSamples {
					d.Samples = min(len(oldSamples), len(newSamples))
					u := stats.MannWhitneyU(oldSamples, newSamples)
					d.P = u.P
					d.Verdict = classify(d.RelDelta, u.P < opts.Alpha, opts.MinEffect)
				} else {
					d.Verdict = classify(d.RelDelta, true, m.threshold(opts, pair.method, pair.old, pair.new))
				}
				rep.Diffs = append(rep.Diffs, d)
			}
		}
	}
	return rep, nil
}

func benchIndex(f *BenchFile) map[string]*BenchResult {
	by := make(map[string]*BenchResult, len(f.Benchmarks))
	for i := range f.Benchmarks {
		by[f.Benchmarks[i].Name] = &f.Benchmarks[i]
	}
	return by
}

// relDelta is the relative change from old to new, with the zero
// baseline handled explicitly: 0 -> 0 is no change, 0 -> x>0 is an
// infinite relative increase.
func relDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / old
}

// classify turns a relative delta into a verdict. significant is the
// sample-mode significance decision (always true in threshold mode);
// minDelta is the minimum |RelDelta| for the change to count. All
// compared metrics are lower-is-better.
func classify(relDelta float64, significant bool, minDelta float64) Verdict {
	if !significant || math.Abs(relDelta) <= minDelta {
		return VerdictUnchanged
	}
	if relDelta > 0 {
		return VerdictRegressed
	}
	return VerdictImproved
}

// Gate applies the perf-gate policy of `pdwbench -baseline` and
// returns the violating pairs: any regression in a correctness metric
// (n_wash, l_wash_mm, t_assay_s), a wall-time regression beyond
// wallGate (relative, e.g. 0.2 = +20%), or a benchmark present in the
// baseline but missing from the new run (lost coverage is a
// regression too). An empty result means the gate passes.
func (r *DiffReport) Gate(wallGate float64) []MetricDiff {
	var out []MetricDiff
	seenMissing := map[string]bool{}
	onlyOld := map[string]bool{}
	for _, n := range r.OnlyOld {
		onlyOld[n] = true
	}
	for _, d := range r.Diffs {
		switch {
		case d.Verdict == VerdictMissing && onlyOld[d.Benchmark] && !seenMissing[d.Benchmark]:
			seenMissing[d.Benchmark] = true
			out = append(out, d)
		case d.Verdict != VerdictRegressed:
		case correctnessMetrics[d.Metric]:
			out = append(out, d)
		case d.Metric == "wall_s" && d.RelDelta > wallGate:
			out = append(out, d)
		}
	}
	return out
}

// Counts returns the number of pairs per verdict.
func (r *DiffReport) Counts() map[Verdict]int {
	c := make(map[Verdict]int, 4)
	for _, d := range r.Diffs {
		c[d.Verdict]++
	}
	return c
}

// Table renders the report as an aligned human-readable text table,
// listing every changed or missing pair and summarizing the unchanged
// ones.
func (r *DiffReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench diff: %s -> %s%s\n", orUnknown(r.OldGeneratedAt), orUnknown(r.NewGeneratedAt), quickTag(r.Quick))
	head := fmt.Sprintf("%-14s %-5s %-10s %12s %12s %9s  %-10s %s",
		"Benchmark", "Meth", "Metric", "Old", "New", "Delta", "Verdict", "Significance")
	b.WriteString(head + "\n")
	b.WriteString(strings.Repeat("-", len(head)) + "\n")
	shown := 0
	for _, d := range r.Diffs {
		if d.Verdict == VerdictUnchanged {
			continue
		}
		shown++
		fmt.Fprintf(&b, "%-14s %-5s %-10s %12s %12s %9s  %-10s %s\n",
			d.Benchmark, d.Method, d.Metric,
			formatValue(d), formatNew(d), formatDelta(d.RelDelta), d.Verdict, significance(d))
	}
	counts := r.Counts()
	if shown == 0 {
		b.WriteString("(no changes)\n")
	}
	fmt.Fprintf(&b, "%d improved, %d regressed, %d unchanged, %d missing\n",
		counts[VerdictImproved], counts[VerdictRegressed], counts[VerdictUnchanged], counts[VerdictMissing])
	return b.String()
}

// Markdown renders the report as a GitHub-flavored markdown table (the
// `pdwbench -compare -md` output, pasteable into a PR description).
func (r *DiffReport) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Bench diff: `%s` → `%s`%s\n\n", orUnknown(r.OldGeneratedAt), orUnknown(r.NewGeneratedAt), quickTag(r.Quick))
	b.WriteString("| Benchmark | Method | Metric | Old | New | Δ | Verdict | Significance |\n")
	b.WriteString("|---|---|---|---:|---:|---:|---|---|\n")
	for _, d := range r.Diffs {
		if d.Verdict == VerdictUnchanged {
			continue
		}
		verdict := string(d.Verdict)
		if d.Verdict == VerdictRegressed {
			verdict = "**regressed**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			d.Benchmark, d.Method, d.Metric,
			formatValue(d), formatNew(d), formatDelta(d.RelDelta), verdict, significance(d))
	}
	counts := r.Counts()
	fmt.Fprintf(&b, "\n%d improved, %d regressed, %d unchanged, %d missing\n",
		counts[VerdictImproved], counts[VerdictRegressed], counts[VerdictUnchanged], counts[VerdictMissing])
	return b.String()
}

func quickTag(quick bool) string {
	if quick {
		return " (quick)"
	}
	return ""
}

func orUnknown(s string) string {
	if s == "" {
		return "?"
	}
	return s
}

func significance(d MetricDiff) string {
	if d.Verdict == VerdictMissing {
		return "-"
	}
	if d.significant() {
		return fmt.Sprintf("p=%.3f (n=%d)", d.P, d.Samples)
	}
	return "threshold"
}

func formatValue(d MetricDiff) string {
	if d.Verdict == VerdictMissing {
		return "-"
	}
	return trimFloat(d.Old)
}

func formatNew(d MetricDiff) string {
	if d.Verdict == VerdictMissing {
		return "-"
	}
	return trimFloat(d.New)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func formatDelta(rel float64) string {
	switch {
	case math.IsInf(rel, 1):
		return "+inf%"
	case math.IsNaN(rel):
		return "?"
	default:
		return fmt.Sprintf("%+.1f%%", rel*100)
	}
}
