package washpath

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathdriverwash/internal/solve"
)

// BenchmarkProgressOverhead pins DESIGN.md's "Progress snapshot cost
// contract" where it runs: the path search, bare and with a live
// Progress view attached, on one fixed-work build that closes in tens
// of milliseconds. The build is a 14-target set exact PDW builds on
// corpus draw overrun-diamond, seed 9 at 60 ops (Diamond, density 1,
// reagent rate 8), committed in the captured-model format under
// testdata/bench without an ILP optimum: the path ILP does not close
// on it within a minute. The attached variant must stay within 2% of
// the bare one.
func BenchmarkProgressOverhead(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "bench", "overrun-diamond-s9-o60.json"))
	if err != nil {
		b.Fatal(err)
	}
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		b.Fatal(err)
	}
	chip, err := decodeChip(mf.Chip)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Targets: mf.Models[0].points()}
	for _, v := range []struct {
		name string
		ctx  context.Context
	}{
		{"bare", context.Background()},
		{"progress", solve.WithProgress(context.Background(), solve.NewProgress())},
	} {
		b.Run(v.name, func(b *testing.B) {
			nodes := 0
			for range b.N {
				stats := &solve.Stats{}
				plan, err := BuildContext(v.ctx, chip, req, Options{Exact: true, TimeLimit: time.Minute, Trace: stats})
				if err != nil || !plan.Optimal {
					b.Fatalf("build did not close: optimal %v, %v", plan.Optimal, err)
				}
				nodes = stats.MILPs[0].Nodes
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}
