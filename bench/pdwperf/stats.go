package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"pathdriverwash/pkg/pathdriver"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples. +Inf samples (failed requests) sort last, so a percentile
// that reaches into the failures reads +Inf.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The epsilon keeps float error (99.9*10000/100 = 9990.000000000002)
// from pushing an exact rank up by one.
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it, so the tail is never a single outlier. With
// fewer than twenty samples no candidate qualifies and the median is
// reported.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// median is the middle of samples (the mean of the middle two for an
// even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// layers are the per-layer quantities one optimizer run reports
// through its solve.Stats, plus the bench-side call walls.
type layers struct {
	synth, dawo, optimize time.Duration // bench-timed call walls

	insertion, window, verify time.Duration // recorded phases
	phases                    time.Duration // all recorded phases
	rounds                    int

	washILPs, washCutRounds, washClosed, washSolves int
	washWall                                        time.Duration
	windowSolves, windowClosed                      int
	windowWall                                      time.Duration

	nodes, pruned, pivots int
	milpWall              time.Duration
}

// closedStatus reports a MILP that ended with a proof: an optimum or
// infeasibility. Everything else stopped at a limit.
func closedStatus(status string) bool {
	return status == "optimal" || status == "infeasible"
}

// washPathRound parses a wash-path ILP label, "wash-path[<N>t r<K>]",
// and returns its connectivity-cut round K.
func washPathRound(label string) (int, bool) {
	rest, ok := strings.CutPrefix(label, "wash-path[")
	if !ok {
		return 0, false
	}
	i := strings.Index(rest, " r")
	j := strings.Index(rest, "]")
	if i < 0 || j < i {
		return 0, false
	}
	k, err := strconv.Atoi(rest[i+2 : j])
	return k, err == nil
}

// addStats folds one optimizer run's telemetry into l.
func (l *layers) addStats(st *pathdriver.SolveStats, rounds int) {
	l.rounds += rounds
	for _, p := range st.PhaseList() {
		l.phases += p.Wall
		switch p.Name {
		case "wash-insertion":
			l.insertion += p.Wall
		case "window-milp":
			l.window += p.Wall
		case "verify":
			l.verify += p.Wall
		}
	}
	for _, m := range st.MILPs {
		l.nodes += m.Nodes
		l.pruned += m.Pruned
		l.pivots += m.SimplexIters
		l.milpWall += m.Wall
		closed := closedStatus(m.Status)
		if k, ok := washPathRound(m.Label); ok {
			l.washSolves++
			l.washWall += m.Wall
			if k == 0 {
				l.washILPs++
			} else {
				l.washCutRounds++
			}
			if closed {
				l.washClosed++
			}
		} else if m.Label == "window-milp" {
			l.windowSolves++
			l.windowWall += m.Wall
			if closed {
				l.windowClosed++
			}
		}
	}
}

func (l *layers) add(o layers) {
	l.synth += o.synth
	l.dawo += o.dawo
	l.optimize += o.optimize
	l.insertion += o.insertion
	l.window += o.window
	l.verify += o.verify
	l.phases += o.phases
	l.rounds += o.rounds
	l.washILPs += o.washILPs
	l.washCutRounds += o.washCutRounds
	l.washClosed += o.washClosed
	l.washSolves += o.washSolves
	l.washWall += o.washWall
	l.windowSolves += o.windowSolves
	l.windowClosed += o.windowClosed
	l.windowWall += o.windowWall
	l.nodes += o.nodes
	l.pruned += o.pruned
	l.pivots += o.pivots
	l.milpWall += o.milpWall
}

// Self times: a layer's wall minus the part its children account for.
// Wash insertion contains the wash-path ILPs, the window phase contains
// the window MILP, and OptimizeWash contains all recorded phases.
func (l *layers) insertionSelf() time.Duration { return l.insertion - l.washWall }
func (l *layers) windowSelf() time.Duration    { return l.window - l.windowWall }
func (l *layers) optimizeSelf() time.Duration  { return l.optimize - l.phases }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer renders l, accumulated over passes passes, as the per-layer
// metrics the library layers own.
func (l *layers) perLayer(passes int) map[string]float64 {
	n := float64(passes)
	return map[string]float64{
		"synth.s":              l.synth.Seconds() / n,
		"dawo.s":               l.dawo.Seconds() / n,
		"pdw.optimize_self_s":  l.optimizeSelf().Seconds() / n,
		"pdw.insertion_self_s": l.insertionSelf().Seconds() / n,
		"pdw.window_s":         l.window.Seconds() / n,
		"pdw.window_self_s":    l.windowSelf().Seconds() / n,
		"pdw.verify_s":         l.verify.Seconds() / n,
		"pdw.rounds":           float64(l.rounds) / n,
		"washpath.ilps":        float64(l.washILPs) / n,
		"washpath.cut_rounds":  float64(l.washCutRounds) / n,
		"washpath.ilp_s":       l.washWall.Seconds() / n,
		"washpath.closed_frac": ratio(float64(l.washClosed), float64(l.washSolves)),
		"window.closed_frac":   ratio(float64(l.windowClosed), float64(l.windowSolves)),
		"milp.nodes":           float64(l.nodes) / n,
		"milp.pruned_frac":     ratio(float64(l.pruned), float64(l.nodes)),
		"milp.nodes_per_s":     ratio(float64(l.nodes), l.milpWall.Seconds()),
		"lp.pivots":            float64(l.pivots) / n,
		"lp.pivots_per_s":      ratio(float64(l.pivots), l.milpWall.Seconds()),
	}
}

// promSamples is one scrape of a Prometheus text exposition: every
// sample keyed by its series as written ("name" or
// `name{label="v",...}`).
type promSamples map[string]float64

// parseProm reads Prometheus text format, skipping comments and blank
// lines. Timestamps after the value are ignored.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the closing brace of its labels, or at the
		// first space when it has none; label values may hold spaces.
		end := strings.IndexByte(line, ' ')
		if b := strings.IndexByte(line, '{'); b >= 0 && (end < 0 || b < end) {
			c := strings.LastIndexByte(line, '}')
			if c < b {
				return nil, fmt.Errorf("prometheus: unterminated labels in %q", line)
			}
			end = c + 1
		}
		if end < 0 || end >= len(line) {
			return nil, fmt.Errorf("prometheus: no value in %q", line)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prometheus: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus: %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the metric family name (any labels).
func (p promSamples) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}
