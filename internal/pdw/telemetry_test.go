package pdw

import (
	"bufio"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/solve"
)

// scrapeTotals reads the named unlabelled series from /metrics.
func scrapeTotals(t *testing.T, names []string) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", sc.Text(), err)
		}
		out[name] = int64(v)
	}
	return out
}

// TestTelemetryAgreesThreeWays runs PDW on a Table II benchmark under
// the table2-budgeted caps, and requires the /metrics deltas, the sums
// over Stats.MILPs, and the final Progress snapshot to report the same
// nodes, pruned and incumbents.
func TestTelemetryAgreesThreeWays(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"pdw_bb_nodes_total", "pdw_bb_pruned_total", "pdw_bb_incumbents_total"}

	obs.Enable()
	defer obs.Disable()
	before := scrapeTotals(t, names)
	prog := solve.NewProgress()
	res, err := OptimizeContext(solve.WithProgress(context.Background(), prog), syn.Schedule, Options{
		Budget: solve.Budget{PerPath: 50 * time.Millisecond, Window: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := scrapeTotals(t, names)

	var stats [3]int64
	limited := 0
	for _, m := range res.Stats.MILPs {
		stats[0] += int64(m.Nodes)
		stats[1] += int64(m.Pruned)
		stats[2] += int64(len(m.Incumbents))
		if !m.Optimal {
			limited++
		}
	}
	snap := prog.Snapshot()
	live := [3]int64{snap.Nodes, snap.Pruned, snap.Incumbents}
	for i, name := range names {
		metric := after[name] - before[name]
		if metric != stats[i] || live[i] != stats[i] {
			t.Errorf("%s: /metrics delta %d, Stats sum %d, Progress %d", name, metric, stats[i], live[i])
		}
	}
	// The node series must not be vacuous.
	if stats[0] == 0 {
		t.Fatalf("want search nodes: %+v", stats)
	}
	t.Logf("%d searches (%d limit-hit): nodes %d pruned %d incumbents %d",
		len(res.Stats.MILPs), limited, stats[0], stats[1], stats[2])
}
