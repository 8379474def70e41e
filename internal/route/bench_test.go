package route_test

import (
	"context"
	"testing"

	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/synth"
)

// BenchmarkFlushPath routes BFS wash paths on a heuristic-scale chip:
// the first instance of the pinned heuristic-scale sweep (seed 3,
// 24-40 ops), one FlushPath per flow path of its synthesized schedule,
// through the path's interior cells with ports and foreign device
// cells avoided, as washpath's heuristic does. One op is the whole set.
func BenchmarkFlushPath(b *testing.B) {
	set, err := corpus.GenerateSweep(context.Background(), corpus.SweepConfig{
		Seed: 3, N: 1, MinOps: 24, MaxOps: 40, Level: corpus.LevelStructural,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(set[0].Assay, set[0].Config)
	if err != nil {
		b.Fatal(err)
	}
	chip := res.Schedule.Chip
	type query struct {
		chain []geom.Point
		opts  route.Options
	}
	var queries []query
	for _, t := range res.Schedule.Tasks() {
		if t.Path.Len() < 3 {
			continue
		}
		chain := t.Path.Cells[1 : t.Path.Len()-1]
		on := map[geom.Point]bool{}
		for _, p := range chain {
			on[p] = true
		}
		avoid := map[geom.Point]bool{}
		for _, d := range chip.Devices() {
			for _, p := range d.Cells() {
				if !on[p] {
					avoid[p] = true
				}
			}
		}
		queries = append(queries, query{chain, route.Options{AvoidPorts: true, AvoidDevices: avoid}})
	}
	b.Logf("%s: %dx%d chip, %d flow ports, %d waste ports, %d chains",
		set[0].Name, chip.W, chip.H, len(chip.FlowPorts()), len(chip.WastePorts()), len(queries))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, q := range queries {
			if _, _, _, err := route.FlushPath(chip, q.chain, q.opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
