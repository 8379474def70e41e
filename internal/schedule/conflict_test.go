package schedule_test

import (
	"context"
	"slices"
	"testing"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
)

// refConflictCapable is Placer.ConflictCapable as it was before it read
// the chip's device index: a path crosses a device when it holds a
// cell of that device's cell set.
func refConflictCapable(devCell map[*grid.Device]map[geom.Point]bool, t, u *schedule.Task) bool {
	crosses := func(p grid.Path, d *grid.Device) bool {
		for _, c := range p.Cells {
			if devCell[d][c] {
				return true
			}
		}
		return false
	}
	tf, uf := t.Kind.Fluidic(), u.Kind.Fluidic()
	switch {
	case !tf && !uf:
		return t.Device == u.Device
	case tf && uf:
		return t.Path.Overlaps(u.Path)
	case tf && !uf:
		return crosses(t.Path, u.Device)
	default:
		return crosses(u.Path, t.Device)
	}
}

// checkConflicts compares ConflictCapable with the reference on every
// ordered task pair of s, plus each fluidic task against an operation
// with no device.
func checkConflicts(t *testing.T, name string, s *schedule.Schedule) {
	t.Helper()
	devCell := map[*grid.Device]map[geom.Point]bool{}
	for _, d := range s.Chip.Devices() {
		set := map[geom.Point]bool{}
		for _, c := range d.Cells() {
			set[c] = true
		}
		devCell[d] = set
	}
	pl := schedule.NewPlacer(s)
	tasks := s.Tasks()
	noDevice := &schedule.Task{ID: "no-device", Kind: schedule.Operation}
	others := append(slices.Clone(tasks), noDevice)
	conflicts := 0
	for _, a := range tasks {
		for _, b := range others {
			got, want := pl.ConflictCapable(a, b), refConflictCapable(devCell, a, b)
			if got != want {
				t.Fatalf("%s: ConflictCapable(%s, %s) = %v, reference %v", name, a.ID, b.ID, got, want)
			}
			if got && b == noDevice && a.Kind.Fluidic() {
				t.Fatalf("%s: %s crosses a nil device", name, a.ID)
			}
			if got {
				conflicts++
			}
		}
	}
	if conflicts == 0 {
		t.Fatalf("%s: no conflicting pair among %d tasks", name, len(tasks))
	}
}

// TestConflictCapableMatchesCellMaps checks ConflictCapable against
// per-device cell sets on the synthesized and heuristic-PDW schedules of
// the pinned heuristic-scale sweep and Table II.
func TestConflictCapableMatchesCellMaps(t *testing.T) {
	ctx := context.Background()
	set, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{
		Seed: 3, N: 5, MinOps: 24, MaxOps: 40, Level: corpus.LevelStructural,
	})
	if err != nil {
		t.Fatal(err)
	}
	set = append(set, benchmarks.All()...)
	for _, b := range set {
		syn, err := b.SynthesizeContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		checkConflicts(t, b.Name+" synthesis", syn.Schedule)
		res, err := pdw.OptimizeContext(ctx, syn.Schedule, pdw.Options{HeuristicPaths: true, HeuristicWindows: true})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		checkConflicts(t, b.Name+" heuristic PDW", res.Schedule)
	}
}
