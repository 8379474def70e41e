package route

import (
	"errors"
	"testing"
	"testing/quick"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// openChip builds a WxH chip where every interior cell is channel, with
// a flow port at (0,0) and a waste port at (W-1,H-1) corners plus extra
// ports as requested.
func openChip(t *testing.T, w, h int) *grid.Chip {
	t.Helper()
	c := grid.NewChip("open", w, h)
	if _, err := c.AddPort("in1", grid.FlowPort, geom.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPort("out1", grid.WastePort, geom.Pt(w-1, h-1)); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if err := c.AddChannel(geom.Pt(x, y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func TestShortestPathStraightLine(t *testing.T) {
	c := openChip(t, 6, 6)
	p, err := ShortestPath(c, geom.Pt(0, 0), geom.Pt(5, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 6 {
		t.Fatalf("len = %d want 6: %v", p.Len(), p)
	}
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathOptimalLength(t *testing.T) {
	c := openChip(t, 8, 8)
	cases := []struct{ a, b geom.Point }{
		{geom.Pt(0, 0), geom.Pt(7, 7)},
		{geom.Pt(3, 2), geom.Pt(3, 2)},
		{geom.Pt(1, 6), geom.Pt(6, 1)},
	}
	for _, cs := range cases {
		p, err := ShortestPath(c, cs.a, cs.b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := cs.a.Manhattan(cs.b) + 1
		if p.Len() != want {
			t.Errorf("path %v-%v len %d want %d", cs.a, cs.b, p.Len(), want)
		}
	}
}

func TestShortestPathAroundObstacle(t *testing.T) {
	// A wall of blocked cells forces a detour.
	c := openChip(t, 7, 7)
	blocked := map[geom.Point]bool{}
	for y := 0; y < 6; y++ {
		blocked[geom.Pt(3, y)] = true
	}
	p, err := ShortestPath(c, geom.Pt(0, 0), geom.Pt(6, 0), Options{Blocked: blocked})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 7+2*6 {
		t.Fatalf("detour length = %d want %d", p.Len(), 7+12)
	}
	for _, cell := range p.Cells {
		if blocked[cell] {
			t.Fatalf("path uses blocked cell %v", cell)
		}
	}
}

func TestShortestPathNoPath(t *testing.T) {
	c := openChip(t, 5, 5)
	blocked := map[geom.Point]bool{}
	for y := 0; y < 5; y++ {
		blocked[geom.Pt(2, y)] = true
	}
	_, err := ShortestPath(c, geom.Pt(0, 0), geom.Pt(4, 0), Options{Blocked: blocked})
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v want ErrNoPath", err)
	}
}

func TestShortestPathBadEndpoints(t *testing.T) {
	c := grid.NewChip("sparse", 5, 5)
	if _, err := c.AddPort("in", grid.FlowPort, geom.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ShortestPath(c, geom.Pt(1, 1), geom.Pt(0, 0), Options{}); err == nil {
		t.Error("unroutable source must fail")
	}
	if _, err := ShortestPath(c, geom.Pt(0, 0), geom.Pt(1, 1), Options{}); err == nil {
		t.Error("unroutable destination must fail")
	}
}

func TestShortestPathEndpointsExemptFromBlocked(t *testing.T) {
	c := openChip(t, 5, 5)
	blocked := map[geom.Point]bool{geom.Pt(0, 0): true, geom.Pt(4, 0): true}
	p, err := ShortestPath(c, geom.Pt(0, 0), geom.Pt(4, 0), Options{Blocked: blocked})
	if err != nil {
		t.Fatalf("blocked endpoints must still be usable: %v", err)
	}
	if p.Len() != 5 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestAvoidPorts(t *testing.T) {
	// Port in the middle of the top edge; route along the edge must dodge it.
	c := openChip(t, 7, 4)
	if _, err := c.AddPort("in2", grid.FlowPort, geom.Pt(3, 0)); err != nil {
		// cell (3,0) is already channel; rebuild chip with port first
		c = grid.NewChip("p", 7, 4)
		mustAdd(t, c, "in2", grid.FlowPort, geom.Pt(3, 0))
		mustAdd(t, c, "in1", grid.FlowPort, geom.Pt(0, 0))
		mustAdd(t, c, "out1", grid.WastePort, geom.Pt(6, 3))
		for y := 0; y < 4; y++ {
			for x := 0; x < 7; x++ {
				if err := c.AddChannel(geom.Pt(x, y)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p, err := ShortestPath(c, geom.Pt(0, 0), geom.Pt(6, 0), Options{AvoidPorts: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Contains(geom.Pt(3, 0)) {
		t.Fatal("path passes through an intermediate port")
	}
}

func mustAdd(t *testing.T, c *grid.Chip, id string, k grid.PortKind, at geom.Point) {
	t.Helper()
	if _, err := c.AddPort(id, k, at); err != nil {
		t.Fatal(err)
	}
}

func TestAvoidDevices(t *testing.T) {
	c := grid.NewChip("dev", 7, 5)
	mustAdd(t, c, "in", grid.FlowPort, geom.Pt(0, 2))
	mustAdd(t, c, "out", grid.WastePort, geom.Pt(6, 2))
	d, err := c.AddDevice("mix", grid.Mixer, geom.Rc(3, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 7; x++ {
			if err := c.AddChannel(geom.Pt(x, y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	avoid := map[geom.Point]bool{}
	for _, cell := range d.Cells() {
		avoid[cell] = true
	}
	p, err := ShortestPath(c, geom.Pt(0, 2), geom.Pt(6, 2), Options{AvoidDevices: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range p.Cells {
		if avoid[cell] {
			t.Fatalf("path crosses avoided device cell %v", cell)
		}
	}
	// Without avoidance the straight route is shorter.
	q, err := ShortestPath(c, geom.Pt(0, 2), geom.Pt(6, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() >= p.Len() {
		t.Fatalf("avoidance should cost length: %d vs %d", q.Len(), p.Len())
	}
	// Exempting the device's cells on the straight row makes it usable.
	e, err := ShortestPath(c, geom.Pt(0, 2), geom.Pt(6, 2), Options{AvoidDevices: true, Exempt: []geom.Point{geom.Pt(3, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != q.Len() {
		t.Fatalf("exempt row route has %d cells, the straight one %d", e.Len(), q.Len())
	}
}

func TestThrough(t *testing.T) {
	c := openChip(t, 8, 8)
	wps := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(7, 7)}
	p, err := Through(c, wps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wps {
		if !p.Contains(w) {
			t.Errorf("path misses waypoint %v", w)
		}
	}
	if err := p.Validate(c); err != nil {
		t.Fatalf("Through produced invalid path: %v", err)
	}
}

func TestThroughRejectsShortInput(t *testing.T) {
	c := openChip(t, 4, 4)
	if _, err := Through(c, []geom.Point{geom.Pt(0, 0)}, Options{}); err == nil {
		t.Fatal("expected error for single waypoint")
	}
}

func TestThroughStaysSimple(t *testing.T) {
	// Waypoints that force a U-turn: the second leg must not reuse the
	// first leg's cells.
	c := openChip(t, 8, 4)
	p, err := Through(c, []geom.Point{geom.Pt(0, 0), geom.Pt(6, 0), geom.Pt(1, 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(c); err != nil {
		t.Fatalf("revisit: %v", err)
	}
}

func TestDistances(t *testing.T) {
	c := openChip(t, 5, 5)
	d := Distances(c, geom.Pt(0, 0), Options{})
	if v, ok := d.At(geom.Pt(0, 0)); !ok || v != 0 {
		t.Error("source distance must be 0")
	}
	if v, _ := d.At(geom.Pt(4, 4)); v != 8 {
		t.Errorf("corner distance = %d want 8", v)
	}
	reached := 0
	for y := -1; y <= 5; y++ {
		for x := -1; x <= 5; x++ {
			if _, ok := d.At(geom.Pt(x, y)); ok {
				reached++
			}
		}
	}
	if reached != 25 {
		t.Errorf("reached %d cells want 25", reached)
	}
}

func TestDistancesMatchShortestPathQuick(t *testing.T) {
	c := openChip(t, 9, 9)
	src := geom.Pt(0, 0)
	d := Distances(c, src, Options{})
	f := func(x, y uint8) bool {
		dst := geom.Pt(int(x%9), int(y%9))
		p, err := ShortestPath(c, src, dst, Options{})
		if err != nil {
			return false
		}
		v, ok := d.At(dst)
		return ok && p.Len()-1 == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
