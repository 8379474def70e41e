package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/solve"
	"pathdriverwash/pkg/pathdriver"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990: 10 beyond
		{9999, 99},    // rank 9990: 9 beyond
		{1000, 99},    // rank 990: 10 beyond
		{999, 90},     // rank 990: 9 beyond
		{100, 90},     // rank 90: 10 beyond
		{20, 50},      // rank 10: 10 beyond
		{19, 50},      // nothing qualifies: the median
		{1, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1)
	}
	if got := percentile(samples, tailPercentile(len(samples))); got != 990 {
		t.Errorf("tail of 1..1000 = %g, want 990", got)
	}
}

func TestFailedRequestsCountAsInf(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 1
	}
	// Ten failures sit exactly beyond p99; an eleventh reaches it.
	for i := 0; i < 10; i++ {
		samples[i*7] = math.Inf(1)
	}
	if got := percentile(samples, 99); got != 1 {
		t.Errorf("p99 with 10 failures = %g, want 1", got)
	}
	samples[500] = math.Inf(1)
	if got := percentile(samples, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 11 failures = %g, want +Inf", got)
	}
	if got := median(samples); got != 1 {
		t.Errorf("median = %g, want 1", got)
	}
	// A failure makes the reported value unencodable as JSON, so the
	// run is reported incorrect with the largest float in its place.
	rep := &report{attempted: 1, failed: 1}
	rep.set("x", math.Inf(1))
	var b strings.Builder
	if err := rep.print(&b, map[string]metricDecl{"x": {unit: "ms"}}); err != nil {
		t.Fatal(err)
	}
	last := b.String()[strings.LastIndex(strings.TrimSpace(b.String()), "\n")+1:]
	if !strings.Contains(last, `"correct":false`) || !strings.Contains(last, "1.7976931348623157e+308") {
		t.Errorf("JSON line %q", last)
	}
}

func TestWashPathRound(t *testing.T) {
	for label, want := range map[string]int{
		"wash-path[3t r0]":  0,
		"wash-path[12t r7]": 7,
	} {
		if got, ok := washPathRound(label); !ok || got != want {
			t.Errorf("washPathRound(%q) = %d, %v; want %d", label, got, ok, want)
		}
	}
	for _, label := range []string{"window-milp", "wash-path[3t]", "wash-path[3t rx]", "wash path w3"} {
		if _, ok := washPathRound(label); ok {
			t.Errorf("washPathRound(%q) parsed", label)
		}
	}
}

func TestSelfTimesFromStats(t *testing.T) {
	st := &pathdriver.SolveStats{
		Phases: []solve.PhaseStat{
			{Name: "wash-insertion", Wall: 100 * time.Millisecond},
			{Name: "window-milp", Wall: 50 * time.Millisecond},
			{Name: "verify", Wall: 5 * time.Millisecond},
		},
		MILPs: []pathdriver.MILPStat{
			{Label: "wash-path[4t r0]", Wall: 30 * time.Millisecond, Status: "optimal", Nodes: 3, Pruned: 1, SimplexIters: 40},
			{Label: "wash-path[4t r1]", Wall: 20 * time.Millisecond, Status: "limit", Nodes: 5, SimplexIters: 60},
			{Label: "wash-path[2t r0]", Wall: 10 * time.Millisecond, Status: "infeasible", Nodes: 1},
			{Label: "window-milp", Wall: 45 * time.Millisecond, Status: "feasible(limit)", Nodes: 11, Pruned: 4, SimplexIters: 300},
		},
	}
	var l layers
	l.optimize = 170 * time.Millisecond
	l.addStats(st, 2)
	if got, want := l.insertionSelf(), 40*time.Millisecond; got != want {
		t.Errorf("insertion self = %v, want %v", got, want)
	}
	if got, want := l.windowSelf(), 5*time.Millisecond; got != want {
		t.Errorf("window self = %v, want %v", got, want)
	}
	if got, want := l.optimizeSelf(), 15*time.Millisecond; got != want {
		t.Errorf("optimize self = %v, want %v", got, want)
	}
	m := l.perLayer(2)
	for name, want := range map[string]float64{
		"washpath.ilps":        1,   // two r0 solves over two passes
		"washpath.cut_rounds":  0.5, // one r1 solve over two passes
		"washpath.closed_frac": 2.0 / 3,
		"window.closed_frac":   0,
		"milp.nodes":           10,
		"milp.pruned_frac":     0.25,
		"lp.pivots":            200,
		"pdw.rounds":           1,
		"pdw.window_s":         0.025,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP pdwd_requests_total Requests by status.
# TYPE pdwd_requests_total counter
pdwd_requests_total{code="200"} 41
pdwd_requests_total{code="429"} 2

pdwd_cache_hits_total 17
pdwd_solve_seconds_bucket{le="0.5"} 3
pdwd_solve_seconds_bucket{le="+Inf"} 4
pdwd_solve_seconds_sum 1.25
pdwd_solve_seconds_count 4
pdwd_build_info{revision="a b",version="(devel)"} 1
pdwd_stamped 7 1700000000000
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"pdwd_requests_total":      43,
		"pdwd_cache_hits_total":    17,
		"pdwd_solve_seconds_sum":   1.25,
		"pdwd_solve_seconds_count": 4,
		"pdwd_solve_seconds":       0, // the family's series all carry suffixes
		"pdwd_build_info":          1,
		"pdwd_stamped":             7,
		"pdwd_missing_total":       0,
	} {
		if got := p.sum(name); got != want {
			t.Errorf("sum(%s) = %g, want %g", name, got, want)
		}
	}
	if got := p[`pdwd_requests_total{code="429"}`]; got != 2 {
		t.Errorf("labelled series = %g, want 2", got)
	}
	for _, bad := range []string{"novalue\n", "x{a=\"b\" 1\n", "x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}
