package stats

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) < 1e-9
}

func TestOrderStatistics(t *testing.T) {
	cases := []struct {
		name   string
		xs     []float64
		median float64
	}{
		{"empty", nil, math.NaN()},
		{"single", []float64{7}, 7},
		{"odd", []float64{5, 1, 3, 2, 4}, 3},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"repeated", []float64{2, 2, 2, 2}, 2},
		{"unsorted negative", []float64{-3, 9, 0}, 0},
	}
	for _, c := range cases {
		if got := Median(c.xs); !almostEq(got, c.median) {
			t.Errorf("%s: Median = %g, want %g", c.name, got, c.median)
		}
	}
	// Quantile endpoints and interpolation (R type 7).
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	} {
		if got := Quantile(xs, c.p); !almostEq(got, c.want) {
			t.Errorf("Quantile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	// Quantile must not reorder its input.
	orig := []float64{3, 1, 2}
	Quantile(orig, 0.5)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", orig)
	}
}

func TestMannWhitneyExact(t *testing.T) {
	cases := []struct {
		name string
		x, y []float64
		u, p float64
	}{
		// Full separation, n=3 each: P(U<=0) = 1/C(6,3) = 1/20.
		{"separated 3v3", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.1},
		// Full separation, n=2 each: 2 * 1/C(4,2) = 1/3.
		{"separated 2v2", []float64{1, 2}, []float64{3, 4}, 0, 1.0 / 3},
		// Perfect interleaving: cumulative 7 of C(6,3)=20 arrangements.
		{"interleaved 3v3", []float64{1, 3, 5}, []float64{2, 4, 6}, 3, 0.7},
		// Full separation, n=5 each: 2/C(10,5) = 2/252.
		{"separated 5v5", []float64{1, 2, 3, 4, 5}, []float64{10, 11, 12, 13, 14}, 0, 2.0 / 252},
	}
	for _, c := range cases {
		r := MannWhitneyU(c.x, c.y)
		if !r.Exact {
			t.Errorf("%s: want exact distribution", c.name)
		}
		if !almostEq(r.U, c.u) || !almostEq(r.P, c.p) {
			t.Errorf("%s: U=%g P=%g, want U=%g P=%g", c.name, r.U, r.P, c.u, c.p)
		}
		// The test must be symmetric in its arguments.
		rs := MannWhitneyU(c.y, c.x)
		if !almostEq(rs.U, r.U) || !almostEq(rs.P, r.P) {
			t.Errorf("%s: swapped args gave U=%g P=%g, want U=%g P=%g",
				c.name, rs.U, rs.P, r.U, r.P)
		}
	}
}

func TestMannWhitneyEdgeCases(t *testing.T) {
	if r := MannWhitneyU(nil, []float64{1, 2}); r.P != 1 {
		t.Errorf("empty sample: P=%g, want 1", r.P)
	}
	if r := MannWhitneyU([]float64{1}, nil); r.P != 1 {
		t.Errorf("empty sample: P=%g, want 1", r.P)
	}
	// All observations identical: no evidence of difference, no panic.
	if r := MannWhitneyU([]float64{2, 2, 2}, []float64{2, 2, 2}); r.P != 1 {
		t.Errorf("all tied: P=%g, want 1", r.P)
	}
	// Ties force the normal approximation; p must stay in (0, 1].
	r := MannWhitneyU([]float64{1, 1, 2, 3}, []float64{1, 2, 2, 4})
	if r.Exact {
		t.Error("tied samples must not use the exact distribution")
	}
	if !(r.P > 0 && r.P <= 1) {
		t.Errorf("tied samples: P=%g out of range", r.P)
	}
}

func TestMannWhitneyNormalApprox(t *testing.T) {
	// 25 observations per side exceeds maxExactN.
	x := make([]float64, 25)
	y := make([]float64, 25)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) + 0.001 // tiny shift, same shape
	}
	same := MannWhitneyU(x, y)
	if same.Exact {
		t.Error("large samples must use the normal approximation")
	}
	if same.P < 0.3 {
		t.Errorf("near-identical large samples: P=%g, want large", same.P)
	}
	for i := range y {
		y[i] = float64(i) + 1000 // full separation
	}
	far := MannWhitneyU(x, y)
	if far.P > 1e-6 {
		t.Errorf("separated large samples: P=%g, want tiny", far.P)
	}
}
