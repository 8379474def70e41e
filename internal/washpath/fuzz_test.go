package washpath

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// FuzzChainOrder decodes bytes into a cell set and checks ChainOrder's
// contract: a returned order is a permutation of the input with every
// consecutive pair adjacent; a chainable straight line never fails.
func FuzzChainOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0})
	f.Add([]byte{5, 5})
	f.Add([]byte{1, 1, 1, 2, 2, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 28 {
			return
		}
		set := map[geom.Point]bool{}
		var cells []geom.Point
		for i := 0; i+1 < len(data); i += 2 {
			p := geom.Pt(int(data[i]%8), int(data[i+1]%8))
			if !set[p] {
				set[p] = true
				cells = append(cells, p)
			}
		}
		order, err := ChainOrder(cells)
		if err != nil {
			return // unchainable sets are allowed to fail
		}
		if len(order) != len(cells) {
			t.Fatalf("order has %d cells, input %d", len(order), len(cells))
		}
		seen := map[geom.Point]bool{}
		for i, p := range order {
			if !set[p] {
				t.Fatalf("foreign cell %v in order", p)
			}
			if seen[p] {
				t.Fatalf("cell %v repeated", p)
			}
			seen[p] = true
			if i > 0 && !order[i-1].Adjacent(p) {
				t.Fatalf("non-adjacent consecutive cells %v %v", order[i-1], p)
			}
		}
	})
}

// FuzzChainDecompose checks the decomposition contract: chains
// partition the input and each chain is contiguous.
func FuzzChainDecompose(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1, 2, 1})
	f.Add([]byte{3, 3, 5, 5, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 32 {
			return
		}
		set := map[geom.Point]bool{}
		var cells []geom.Point
		for i := 0; i+1 < len(data); i += 2 {
			p := geom.Pt(int(data[i]%9), int(data[i+1]%9))
			if !set[p] {
				set[p] = true
				cells = append(cells, p)
			}
		}
		if len(cells) == 0 {
			return
		}
		parts := chainDecompose(cells)
		total := 0
		seen := map[geom.Point]bool{}
		for _, part := range parts {
			total += len(part)
			for i, p := range part {
				if !set[p] || seen[p] {
					t.Fatalf("partition broken at %v", p)
				}
				seen[p] = true
				if i > 0 && !part[i-1].Adjacent(p) {
					t.Fatalf("chain %v not contiguous", part)
				}
			}
		}
		if total != len(cells) {
			t.Fatalf("decomposition covers %d of %d cells", total, len(cells))
		}
	})
}

// decodePathModel builds a small chip and a target list from bytes: a
// W x H grid (3 to 5 a side) whose cells are empty, one-cell devices or
// channels, one or two flow and waste ports on the boundary, and up to
// six targets among the routable non-port cells (a repeat is kept). It
// reports false when the bytes give no valid chip or no target.
func decodePathModel(data []byte) (*grid.Chip, []geom.Point, bool) {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	w, h := 3+next()%3, 3+next()%3
	c := grid.NewChip("fuzz", w, h)
	var border []geom.Point
	for y := range h {
		for x := range w {
			if x == 0 || y == 0 || x == w-1 || y == h-1 {
				border = append(border, geom.Pt(x, y))
			}
		}
	}
	nf, nw := 1+next()%2, 1+next()%2
	for k := range nf + nw {
		kind, id := grid.FlowPort, fmt.Sprintf("in%d", k)
		if k >= nf {
			kind, id = grid.WastePort, fmt.Sprintf("out%d", k)
		}
		if _, err := c.AddPort(id, kind, border[next()%len(border)]); err != nil {
			return nil, nil, false
		}
	}
	for y := range h {
		for x := range w {
			p := geom.Pt(x, y)
			if c.PortAt(p) != nil {
				continue
			}
			switch next() % 8 {
			case 0:
			case 1:
				if _, err := c.AddDevice(p.String(), grid.Mixer, geom.Rc(x, y, x+1, y+1)); err != nil {
					return nil, nil, false
				}
			default:
				if err := c.AddChannel(p); err != nil {
					return nil, nil, false
				}
			}
		}
	}
	if c.Validate() != nil {
		return nil, nil, false
	}
	var targets []geom.Point
	for range 1 + next()%6 {
		p := geom.Pt(next()%w, next()%h)
		if c.Routable(p) && c.PortAt(p) == nil {
			targets = append(targets, p)
		}
	}
	return c, targets, len(targets) > 0
}

// checkMatchesBruteForce builds the exact path for targets on c and
// requires it to be as long as the shorter of the brute-force Eqs.
// 12-15 optimum and the heuristic, proven, valid and covering; with
// neither, the build must fail.
func checkMatchesBruteForce(t *testing.T, c *grid.Chip, targets []geom.Point) {
	t.Helper()
	want := bruteEq14(c, targets)
	heur, herr := Build(c, Request{Targets: targets}, Options{})
	if herr == nil && (want < 0 || heur.Path.Len() < want) {
		want = heur.Path.Len()
	}
	plan, err := Build(c, Request{Targets: targets}, Options{Exact: true, TimeLimit: time.Minute})
	if want < 0 {
		if err == nil {
			t.Fatalf("targets %v: no Eqs. 12-15 path and no heuristic, but the search returned %v\n%s", targets, plan.Path, c.Render())
		}
		return
	}
	if err != nil {
		t.Fatalf("targets %v: want %d cells, search failed: %v\n%s", targets, want, err, c.Render())
	}
	if plan.Path.Len() != want || !plan.Exact || !plan.Optimal {
		t.Fatalf("targets %v: search %d cells (exact %v, optimal %v), want %d: %v\n%s",
			targets, plan.Path.Len(), plan.Exact, plan.Optimal, want, plan.Path, c.Render())
	}
	if err := plan.Path.ValidateComplete(c); err != nil || !plan.Path.Covers(targets) {
		t.Fatalf("targets %v: invalid path %v (%v)", targets, plan.Path, err)
	}
}

// FuzzWashPathMatchesBruteForce checks the exact wash path against
// brute force over Eqs. 12-15 paths on small decoded chips.
func FuzzWashPathMatchesBruteForce(f *testing.F) {
	f.Add([]byte{2, 2, 0, 0, 1, 9, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 3, 2})
	f.Add([]byte{1, 2, 1, 1, 0, 3, 5, 7, 2, 2, 0, 2, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 5, 1, 1, 2, 2, 3, 3, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, targets, ok := decodePathModel(data)
		if !ok {
			return
		}
		checkMatchesBruteForce(t, c, targets)
	})
}

// TestWashPathMatchesBruteForce runs the fuzz target's check on a
// seeded stream of decoded chips.
func TestWashPathMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	checked := 0
	for range 3000 {
		data := make([]byte, 64)
		for i := range data {
			data[i] = byte(rng.IntN(256))
		}
		c, targets, ok := decodePathModel(data)
		if !ok {
			continue
		}
		checkMatchesBruteForce(t, c, targets)
		checked++
	}
	t.Logf("%d chips checked", checked)
}
