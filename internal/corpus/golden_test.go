package corpus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/dawo"
	"pathdriverwash/internal/demandwash"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/scheduleio"
	"pathdriverwash/internal/solve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_schedules.json")

const goldenFile = "testdata/golden_schedules.json"

// TestGoldenSchedules pins every optimizer's output byte for byte: the
// SHA-256 of each schedule's scheduleio encoding, for DAWO, the
// demand-driven heuristic and heuristic PDW on Table II and the
// benchmark's heuristic-scale pool, and for exact PDW on its
// exact-small pool under budgets at which every solve closes. A change
// that means to move a schedule regenerates the file with
//
//	go test ./internal/corpus -run TestGoldenSchedules -update
func TestGoldenSchedules(t *testing.T) {
	ctx := context.Background()
	scale, err := GenerateSweep(ctx, SweepConfig{Seed: 3, N: 5, MinOps: 24, MaxOps: 40, Level: LevelStructural})
	if err != nil {
		t.Fatal(err)
	}
	small, err := GenerateSweep(ctx, SweepConfig{Seed: 5, N: 8, MinOps: 6, MaxOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	record := func(key string, s *schedule.Schedule) {
		var buf bytes.Buffer
		if err := scheduleio.Encode(&buf, s); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[key] = hex.EncodeToString(sum[:])
	}
	heuristic := pdw.Options{HeuristicPaths: true, HeuristicWindows: true}
	for _, b := range append(benchmarks.All(), scale...) {
		syn, err := b.SynthesizeContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		d, err := dawo.OptimizeContext(ctx, syn.Schedule, dawo.Options{})
		if err != nil {
			t.Fatalf("dawo/%s: %v", b.Name, err)
		}
		record("dawo/"+b.Name, d.Schedule)
		dd, err := demandwash.OptimizeContext(ctx, syn.Schedule, demandwash.Options{})
		if err != nil {
			t.Fatalf("demand/%s: %v", b.Name, err)
		}
		record("demand/"+b.Name, dd.Schedule)
		p, err := pdw.OptimizeContext(ctx, syn.Schedule, heuristic)
		if err != nil {
			t.Fatalf("pdw-heuristic/%s: %v", b.Name, err)
		}
		record("pdw-heuristic/"+b.Name, p.Schedule)
	}
	exact := pdw.Options{Budget: solve.Budget{PerPath: 20 * time.Second, Window: 30 * time.Second}}
	for _, b := range small {
		syn, err := b.SynthesizeContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		p, err := pdw.OptimizeContext(ctx, syn.Schedule, exact)
		if err != nil {
			t.Fatalf("pdw-exact/%s: %v", b.Name, err)
		}
		record("pdw-exact/"+b.Name, p.Schedule)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, h := range want {
		if got[key] != h {
			t.Errorf("%s: schedule hash %s, golden %s", key, got[key], h)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d schedules, golden has %d", len(got), len(want))
	}
}
