package washpath_test

import (
	"context"
	"flag"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/washpath"
)

var update = flag.Bool("update", false, "capture the wash-path models of exact PDW into testdata/models")

// TestCaptureModels writes testdata/models: every target set exact PDW
// builds a path for on Table II under the table2-budgeted caps (PerPath
// 50 ms, Window 200 ms) and on the exact-small pool (the seed-5 sweep of
// 8 draws of 6-8 ops, PerPath 20 s, Window 30 s), one file per instance.
func TestCaptureModels(t *testing.T) {
	if !*update {
		t.Skip("run with -update to capture the models")
	}
	type run struct {
		name   string
		b      *benchmarks.Benchmark
		budget solve.Budget
	}
	var runs []run
	for _, b := range benchmarks.All() {
		name := "table2-" + strings.ToLower(strings.NewReplacer(" ", "", "-", "").Replace(b.Name))
		runs = append(runs, run{name, b, solve.Budget{PerPath: 50 * time.Millisecond, Window: 200 * time.Millisecond}})
	}
	pool, err := corpus.GenerateSweep(context.Background(), corpus.SweepConfig{Seed: 5, N: 8, MinOps: 6, MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pool {
		runs = append(runs, run{"exact-small-" + b.Name, b, solve.Budget{PerPath: 20 * time.Second, Window: 30 * time.Second}})
	}
	for _, r := range runs {
		syn, err := r.b.Synthesize()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var mu sync.Mutex
		var sets [][]geom.Point
		washpath.SetOnExactBuild(func(_ *grid.Chip, ts []geom.Point) {
			mu.Lock()
			sets = append(sets, slices.Clone(ts))
			mu.Unlock()
		})
		_, err = pdw.OptimizeContext(context.Background(), syn.Schedule, pdw.Options{Budget: r.budget})
		washpath.SetOnExactBuild(nil)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		n, err := washpath.WriteModels(filepath.Join("testdata", "models", r.name+".json"), syn.Schedule.Chip, sets)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d builds, %d distinct models kept", r.name, len(sets), n)
	}
}
