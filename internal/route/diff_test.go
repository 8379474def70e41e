package route

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// routeCase is a small routing problem decoded from bytes: a chip, the
// routing options and a chain of cells to route through.
type routeCase struct {
	chip  *grid.Chip
	opts  Options
	chain []geom.Point
}

// byteSource hands out the bytes of a fuzz input, then zeros.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// cell draws a cell from one step outside the chip on every side, so
// out-of-bounds points reach the options and the chain.
func (s *byteSource) cell(c *grid.Chip) geom.Point {
	return geom.Pt(s.next()%(c.W+2)-1, s.next()%(c.H+2)-1)
}

// decodeCase builds a chip of 2..10 x 2..10 cells (empty, channel,
// one-cell devices, and flow and waste ports in turn on the boundary),
// random Blocked, AvoidPorts and AvoidDevices, and a chain that is
// either arbitrary cells or a random walk (both may repeat cells).
func decodeCase(data []byte) routeCase {
	s := &byteSource{b: data}
	w, h := 2+s.next()%9, 2+s.next()%9
	c := grid.NewChip("fuzz", w, h)
	var devCells []geom.Point
	ports := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := geom.Pt(x, y)
			boundary := x == 0 || y == 0 || x == w-1 || y == h-1
			switch k := s.next() % 8; {
			case k == 0:
				// empty
			case k == 6:
				if _, err := c.AddDevice(fmt.Sprintf("d%d", y*w+x), grid.Mixer, geom.Rc(x, y, x+1, y+1)); err == nil {
					devCells = append(devCells, p)
				}
			case k == 7 && boundary:
				kind := grid.PortKind(ports % 2)
				if _, err := c.AddPort(fmt.Sprintf("p%d", ports), kind, p); err == nil {
					ports++
				}
			default:
				_ = c.AddChannel(p)
			}
		}
	}
	var o Options
	if n := s.next() % 6; n > 0 {
		o.Blocked = map[geom.Point]bool{}
		for range n {
			o.Blocked[s.cell(c)] = true
		}
	}
	o.AvoidPorts = s.next()%2 == 1
	switch s.next() % 3 {
	case 1:
		o.AvoidDevices = map[geom.Point]bool{}
		for _, p := range devCells {
			o.AvoidDevices[p] = true
		}
	case 2:
		o.AvoidDevices = map[geom.Point]bool{}
		for range s.next() % 6 {
			o.AvoidDevices[s.cell(c)] = true
		}
	}
	n := 1 + s.next()%5
	chain := []geom.Point{s.cell(c)}
	walk := s.next()%2 == 1
	for len(chain) < n {
		if walk {
			chain = append(chain, chain[len(chain)-1].Add(geom.Dirs[s.next()%4]))
		} else {
			chain = append(chain, s.cell(c))
		}
	}
	return routeCase{chip: c, opts: o, chain: chain}
}

// sameRoute fails unless the two answers have the same cells, the same
// error class (ErrNoPath or not) and the same error text.
func sameRoute(t *testing.T, what string, got, want grid.Path, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrNoPath) != errors.Is(wantErr, ErrNoPath) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %q, reference %q", what, gotErr, wantErr)
	}
	if !slices.Equal(got.Cells, want.Cells) {
		t.Fatalf("%s: path %v, reference %v", what, got, want)
	}
}

// checkAgainstReference runs ShortestPath, Through, Distances and
// FlushPath on rc and compares each with the map-based reference.
func checkAgainstReference(t *testing.T, rc routeCase) {
	t.Helper()
	c, o, chain := rc.chip, rc.opts, rc.chain
	first, last := chain[0], chain[len(chain)-1]

	p, err := ShortestPath(c, first, last, o)
	q, qerr := refShortestPath(c, first, last, o)
	sameRoute(t, fmt.Sprintf("ShortestPath %v->%v", first, last), p, q, err, qerr)

	if len(chain) >= 2 {
		p, err = Through(c, chain, o)
		q, qerr = refThrough(c, chain, o)
		sameRoute(t, fmt.Sprintf("Through %v", chain), p, q, err, qerr)
	}

	if c.InBounds(first) {
		d, ref := Distances(c, first, o), refDistances(c, first, o)
		reached := 0
		for y := -1; y <= c.H; y++ {
			for x := -1; x <= c.W; x++ {
				pt := geom.Pt(x, y)
				v, ok := d.At(pt)
				rv, rok := ref[pt]
				if ok != rok || v != rv {
					t.Fatalf("Distances from %v at %v: (%d, %v), reference (%d, %v)", first, pt, v, ok, rv, rok)
				}
				if ok {
					reached++
				}
			}
		}
		if reached != len(ref) {
			t.Fatalf("Distances from %v reached %d cells, reference %d", first, reached, len(ref))
		}
	}

	p, fp, wp, err := FlushPath(c, chain, o)
	q, rfp, rwp, qerr := refFlushPath(c, chain, o)
	sameRoute(t, fmt.Sprintf("FlushPath %v", chain), p, q, err, qerr)
	if fp != rfp || wp != rwp {
		t.Fatalf("FlushPath %v: ports %v/%v, reference %v/%v", chain, fp, wp, rfp, rwp)
	}

	checkSharedSearch(t, rc)
}

// checkSharedSearch runs every ordered pair of chain cells as a
// ShortestPath query on one Search built without rc's Blocked, passing
// blocked cells per query instead: rc's Blocked cells, the whole chain
// (endpoints included), or none, in turn. Each answer must equal the package
// ShortestPath given the same cells as its Blocked map, so a query's
// stamps neither leak into the next nor differ from the map's rules.
func checkSharedSearch(t *testing.T, rc routeCase) {
	t.Helper()
	c, o, chain := rc.chip, rc.opts, rc.chain
	shared := o
	shared.Blocked = nil
	s := NewSearch(c, shared)
	var fromOpts []geom.Point
	for p, b := range o.Blocked {
		if b {
			fromOpts = append(fromOpts, p)
		}
	}
	slices.SortFunc(fromOpts, func(a, b geom.Point) int {
		if a.Y != b.Y {
			return a.Y - b.Y
		}
		return a.X - b.X
	})
	k := 0
	for _, src := range chain {
		for _, dst := range chain {
			var blocked []geom.Point
			switch k % 3 {
			case 0:
				blocked = fromOpts
			case 1:
				blocked = chain
			}
			k++
			want := shared
			want.Blocked = map[geom.Point]bool{}
			for _, p := range blocked {
				want.Blocked[p] = true
			}
			p, err := s.ShortestPath(src, dst, blocked)
			q, qerr := ShortestPath(c, src, dst, want)
			sameRoute(t, fmt.Sprintf("Search.ShortestPath %v->%v blocked %v", src, dst, blocked), p, q, err, qerr)
		}
		if c.InBounds(src) {
			d, ref := s.Distances(src), Distances(c, src, shared)
			if !slices.Equal(d.d, ref.d) {
				t.Fatalf("Search.Distances from %v differs from Distances", src)
			}
		}
	}
}

// TestRouteMatchesReference checks the dense router against the
// map-based one on randomized chips and options.
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 5))
	cases := 4000
	if testing.Short() {
		cases = 1000
	}
	data := make([]byte, 160)
	for range cases {
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		checkAgainstReference(t, decodeCase(data))
	}
}

// FuzzRouteMatchesReference is TestRouteMatchesReference driven by the
// fuzzer; the committed seeds under testdata/fuzz run in every go test.
func FuzzRouteMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, decodeCase(data))
	})
}
