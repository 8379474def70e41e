// Package stats is the small, dependency-free statistical toolkit
// behind the benchmark regression radar (internal/report.Diff and
// `pdwbench -compare / -baseline`): the median and the Mann–Whitney U
// rank-sum test used to decide whether two wall-time sample sets
// differ significantly.
//
// Everything is stdlib-only and deterministic: the U test uses the
// exact null distribution for small tie-free samples (the regime
// `pdwbench -count N` produces) with the tie-corrected normal
// approximation as the large-sample / tied fallback — the same
// discipline as Go's benchstat.
package stats

import (
	"math"
	"sort"
)

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between closest ranks (R type 7, the numpy default).
// It returns NaN for an empty slice and does not modify xs.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[hi]-sorted[lo])
}

// Median returns the middle value (mean of the two middle values for
// even lengths), or NaN for an empty slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// UTestResult is the outcome of a two-sided Mann–Whitney U test.
type UTestResult struct {
	// U is the smaller of the two U statistics.
	U float64
	// P is the two-sided p-value under the null hypothesis that both
	// samples come from the same distribution.
	P float64
	// Exact reports whether P comes from the exact null distribution
	// (small tie-free samples) rather than the normal approximation.
	Exact bool
}

// maxExactN bounds the per-sample size for the exact U distribution;
// beyond it the tie-corrected normal approximation is already accurate
// and the DP table would grow cubically.
const maxExactN = 20

// MannWhitneyU runs the two-sided Mann–Whitney U test on two
// independent samples. It returns P = 1 (no evidence of difference)
// when either sample is empty or both are single observations. Ties
// are handled with average ranks and the tie-corrected normal
// approximation; tie-free samples of at most maxExactN observations
// each use the exact null distribution.
func MannWhitneyU(x, y []float64) UTestResult {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return UTestResult{U: math.NaN(), P: 1}
	}

	// Rank the pooled sample, averaging ranks across ties.
	type obs struct {
		v     float64
		first bool // belongs to x
	}
	pooled := make([]obs, 0, n1+n2)
	for _, v := range x {
		pooled = append(pooled, obs{v, true})
	}
	for _, v := range y {
		pooled = append(pooled, obs{v, false})
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i].v < pooled[j].v })

	n := n1 + n2
	r1 := 0.0     // rank sum of x
	tieSum := 0.0 // sum of t^3 - t over tie groups
	hasTies := false
	for i := 0; i < n; {
		j := i
		for j < n && pooled[j].v == pooled[i].v {
			j++
		}
		t := j - i
		if t > 1 {
			hasTies = true
			tieSum += float64(t*t*t - t)
		}
		// Average rank of positions i..j-1 (1-based ranks).
		avg := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if pooled[k].first {
				r1 += avg
			}
		}
		i = j
	}

	u1 := r1 - float64(n1*(n1+1))/2
	u2 := float64(n1*n2) - u1
	u := math.Min(u1, u2)

	if !hasTies && n1 <= maxExactN && n2 <= maxExactN {
		return UTestResult{U: u, P: exactP(n1, n2, u), Exact: true}
	}

	mu := float64(n1*n2) / 2
	variance := float64(n1*n2) / 12 * (float64(n+1) - tieSum/float64(n*(n-1)))
	if variance <= 0 {
		// All observations tied: the samples are indistinguishable.
		return UTestResult{U: u, P: 1}
	}
	// Continuity-corrected two-sided normal approximation.
	z := (math.Abs(u-mu) - 0.5) / math.Sqrt(variance)
	if z < 0 {
		z = 0
	}
	p := math.Erfc(z / math.Sqrt2)
	if p > 1 {
		p = 1
	}
	return UTestResult{U: u, P: p}
}

// exactP computes the exact two-sided p-value 2 * P(U <= u) for
// tie-free samples. Under the null every interleaving of the two
// samples is equally likely, and interleavings with U1 = v correspond
// bijectively to partitions of v into at most n1 parts, each at most
// n2 — counted here by a bounded-parts knapsack DP. Counts stay exact
// in float64 (the largest total, C(40,20) ~ 1.4e11, is well below
// 2^53).
func exactP(n1, n2 int, u float64) float64 {
	umax := n1 * n2
	uInt := int(math.Floor(u))
	// dp[p][v] = partitions of v into exactly p parts from {1..s},
	// built up size by size; in-place ascending update per size allows
	// repeated parts of that size.
	dp := make([][]float64, n1+1)
	for p := range dp {
		dp[p] = make([]float64, umax+1)
	}
	dp[0][0] = 1
	for s := 1; s <= n2; s++ {
		for p := 1; p <= n1; p++ {
			for v := s; v <= umax; v++ {
				dp[p][v] += dp[p-1][v-s]
			}
		}
	}
	total, cum := 0.0, 0.0
	for p := 0; p <= n1; p++ {
		for v := 0; v <= umax; v++ {
			total += dp[p][v]
			if v <= uInt {
				cum += dp[p][v]
			}
		}
	}
	p := 2 * cum / total
	if p > 1 {
		p = 1
	}
	return p
}
