package washpath

import (
	"context"
	"slices"
	"testing"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

func TestChainDecomposeStraight(t *testing.T) {
	cells := []geom.Point{geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(4, 2)}
	parts := chainDecompose(cells)
	if len(parts) != 1 || len(parts[0]) != 3 {
		t.Fatalf("parts = %v", parts)
	}
}

func TestChainDecomposeTee(t *testing.T) {
	// A T shape: horizontal bar + vertical stem through the middle.
	cells := []geom.Point{
		geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(4, 2), // bar
		geom.Pt(3, 3), geom.Pt(3, 4), // stem
	}
	parts := chainDecompose(cells)
	if len(parts) < 2 {
		t.Fatalf("T shape needs >= 2 chains: %v", parts)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
		for i := 1; i < len(p); i++ {
			if !p[i-1].Adjacent(p[i]) {
				t.Fatalf("chain not contiguous: %v", p)
			}
		}
	}
	if total != len(cells) {
		t.Fatalf("decomposition lost cells: %d of %d", total, len(cells))
	}
}

func TestChainDecomposeDisconnected(t *testing.T) {
	cells := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(6, 5)}
	parts := chainDecompose(cells)
	if len(parts) != 2 {
		t.Fatalf("parts = %v", parts)
	}
}

func TestConnectedParts(t *testing.T) {
	cells := []geom.Point{
		geom.Pt(1, 1), geom.Pt(2, 1),
		geom.Pt(5, 5),
		geom.Pt(8, 1), geom.Pt(8, 2), geom.Pt(8, 3),
	}
	parts := connectedParts(cells)
	if len(parts) != 3 {
		t.Fatalf("parts = %v", parts)
	}
	sizes := map[int]bool{}
	for _, p := range parts {
		sizes[len(p)] = true
	}
	if !sizes[1] || !sizes[2] || !sizes[3] {
		t.Fatalf("unexpected component sizes: %v", parts)
	}
}

func TestBuildCoverSinglePath(t *testing.T) {
	c := meshChip(t, 8, 8)
	targets := []geom.Point{geom.Pt(3, 3), geom.Pt(4, 3)}
	plans, covered, err := BuildCoverContext(context.Background(), c, targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("expected one plan, got %d", len(plans))
	}
	if !plans[0].Path.Covers(covered[0]) {
		t.Fatal("plan does not cover its targets")
	}
}

func TestBuildCoverSplitsTee(t *testing.T) {
	c := meshChip(t, 9, 9)
	targets := []geom.Point{
		geom.Pt(3, 4), geom.Pt(4, 4), geom.Pt(5, 4), // bar
		geom.Pt(4, 3), geom.Pt(4, 5), // stem up and down (plus shape)
	}
	plans, covered, err := BuildCoverContext(context.Background(), c, targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("plus shape needs >= 2 paths, got %d", len(plans))
	}
	seen := map[geom.Point]bool{}
	for i, p := range plans {
		if err := p.Path.ValidateComplete(c); err != nil {
			t.Errorf("plan %d: %v", i, err)
		}
		if !p.Path.Covers(covered[i]) {
			t.Errorf("plan %d misses its targets", i)
		}
		for _, cell := range covered[i] {
			seen[cell] = true
		}
	}
	for _, cell := range targets {
		if !seen[cell] {
			t.Errorf("target %v not covered by any plan", cell)
		}
	}
}

func TestBuildCoverDeviceAndChannel(t *testing.T) {
	// Device block whose cells are targets plus a channel chain hanging
	// off it: must come back as either one snake path or a split cover.
	c := grid.NewChip("mix", 12, 8)
	if _, err := c.AddPort("in1", grid.FlowPort, geom.Pt(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPort("out1", grid.WastePort, geom.Pt(10, 7)); err != nil {
		t.Fatal(err)
	}
	d, err := c.AddDevice("mix", grid.Mixer, geom.Rc(4, 2, 6, 4))
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 12; x++ {
			p := geom.Pt(x, y)
			if c.DeviceAt(p) == nil && c.PortAt(p) == nil {
				if err := c.AddChannel(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	targets := append(d.Cells(), geom.Pt(6, 2), geom.Pt(7, 2))
	// (6,2)? that's inside the device; use channel cells east of it.
	targets = append(d.Cells(), geom.Pt(6, 2))
	targets = []geom.Point{geom.Pt(4, 2), geom.Pt(5, 2), geom.Pt(4, 3), geom.Pt(5, 3), geom.Pt(6, 3), geom.Pt(7, 3)}
	plans, covered, err := BuildCoverContext(context.Background(), c, targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[geom.Point]bool{}
	for i := range plans {
		for _, cell := range covered[i] {
			seen[cell] = true
		}
	}
	for _, cell := range targets {
		if !seen[cell] {
			t.Errorf("target %v uncovered", cell)
		}
	}
}

// barChip is a 6x4 chip whose bar (1,1)..(4,1) runs between two flow
// ports, with a channel down from (2,1) and from (3,1) to a waste port
// each. No path covers the whole bar, since both its ends lead only to
// flow ports, but each half has one.
func barChip(t *testing.T) *grid.Chip {
	t.Helper()
	c := grid.NewChip("bar", 6, 4)
	for _, p := range []struct {
		id   string
		kind grid.PortKind
		at   geom.Point
	}{
		{"in1", grid.FlowPort, geom.Pt(0, 1)},
		{"in2", grid.FlowPort, geom.Pt(5, 1)},
		{"out1", grid.WastePort, geom.Pt(2, 3)},
		{"out2", grid.WastePort, geom.Pt(3, 3)},
	} {
		if _, err := c.AddPort(p.id, p.kind, p.at); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []geom.Point{geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(3, 1), geom.Pt(4, 1), geom.Pt(2, 2), geom.Pt(3, 2)} {
		if err := c.AddChannel(p); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestBuildCoverHalvesOwnTheirTargets covers the bar by halves and
// requires that appending to one plan's covered set leaves every other
// one as it was: the halves once shared one array, so a target appended
// to the first half overwrote the second half's first target.
func TestBuildCoverHalvesOwnTheirTargets(t *testing.T) {
	c := barChip(t)
	bar := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(3, 1), geom.Pt(4, 1)}
	for _, exact := range []bool{false, true} {
		plans, covered, err := BuildCoverContext(context.Background(), c, bar, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) != 2 {
			t.Fatalf("exact %v: %d plans, want the two halves", exact, len(plans))
		}
		for i := range covered {
			before := make([][]geom.Point, len(covered))
			for j := range covered {
				before[j] = slices.Clone(covered[j])
			}
			_ = append(covered[i], geom.Pt(2, 2))
			for j := range covered {
				if !slices.Equal(covered[j], before[j]) {
					t.Errorf("exact %v: appending to covered[%d] changed covered[%d] from %v to %v",
						exact, i, j, before[j], covered[j])
				}
			}
		}
	}
}
