package washpath

import (
	"slices"
	"testing"
	"time"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// bruteMinimal enumerates every simple complete path (flow port to
// waste port) that covers the targets by depth-first search and returns
// the minimal cell count, or -1 if none exists. Exponential — only for
// tiny fixtures.
func bruteMinimal(c *grid.Chip, targets []geom.Point) int {
	best := -1
	tset := map[geom.Point]bool{}
	for _, t := range targets {
		tset[t] = true
	}
	var visited map[geom.Point]bool
	var dfs func(cur geom.Point, length, covered int)
	dfs = func(cur geom.Point, length, covered int) {
		if best > 0 && length >= best {
			return
		}
		if pt := c.PortAt(cur); pt != nil && pt.Kind == grid.WastePort {
			if covered == len(tset) && (best < 0 || length < best) {
				best = length
			}
			return
		}
		for _, n := range cur.Neighbors() {
			if !c.InBounds(n) || !c.Routable(n) || visited[n] {
				continue
			}
			if pt := c.PortAt(n); pt != nil && pt.Kind == grid.FlowPort {
				continue
			}
			add := 0
			if tset[n] {
				add = 1
			}
			visited[n] = true
			dfs(n, length+1, covered+add)
			visited[n] = false
		}
	}
	for _, fp := range c.FlowPorts() {
		visited = map[geom.Point]bool{fp.At: true}
		dfs(fp.At, 1, 0)
	}
	return best
}

// tinyChip is a 6x5 mesh with interior hole, two flow and two waste ports.
func tinyChip(t *testing.T) *grid.Chip {
	t.Helper()
	c := grid.NewChip("tiny", 6, 5)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.AddPort("in1", grid.FlowPort, geom.Pt(0, 1))
	must(err)
	_, err = c.AddPort("in2", grid.FlowPort, geom.Pt(2, 0))
	must(err)
	_, err = c.AddPort("out1", grid.WastePort, geom.Pt(5, 3))
	must(err)
	_, err = c.AddPort("out2", grid.WastePort, geom.Pt(3, 4))
	must(err)
	for y := 0; y < 5; y++ {
		for x := 0; x < 6; x++ {
			p := geom.Pt(x, y)
			if p == geom.Pt(2, 2) { // hole: forces detours
				continue
			}
			if c.PortAt(p) == nil {
				must(c.AddChannel(p))
			}
		}
	}
	must(c.Validate())
	return c
}

// TestExactILPMatchesBruteForce verifies the path ILP's optimality
// claim against exhaustive enumeration on a tiny chip.
func TestExactILPMatchesBruteForce(t *testing.T) {
	c := tinyChip(t)
	cases := [][]geom.Point{
		{geom.Pt(1, 2)},
		{geom.Pt(4, 1)},
		{geom.Pt(1, 3), geom.Pt(2, 3)},
		{geom.Pt(3, 1), geom.Pt(3, 2)},
		{geom.Pt(4, 2), geom.Pt(4, 3)},
	}
	for i, targets := range cases {
		want := bruteMinimal(c, targets)
		if want < 0 {
			t.Fatalf("case %d: brute force found no path", i)
		}
		plan, err := Build(c, Request{Targets: targets},
			Options{Exact: true, TimeLimit: 30 * time.Second})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !plan.Optimal {
			t.Errorf("case %d: optimality not proven", i)
		}
		if plan.Path.Len() != want {
			t.Errorf("case %d: ILP %d cells, brute force %d (targets %v)",
				i, plan.Path.Len(), want, targets)
		}
	}
}

// bruteEq14 enumerates every simple path from a flow port to a waste
// port through the cells the path ILP may occupy (routable non-port
// cells, less the device cells that are not targets) and returns the
// fewest cells, ports included, of those that satisfy Eqs. 12-15, or -1
// if none does. Exponential — only for chips of about 20 usable cells.
func bruteEq14(c *grid.Chip, targets []geom.Point) int {
	tset := map[geom.Point]bool{}
	for _, t := range targets {
		tset[t] = true
	}
	usable := func(p geom.Point) bool {
		return c.InBounds(p) && c.Routable(p) && c.PortAt(p) == nil && (c.DeviceAt(p) == nil || tset[p])
	}
	// eq1314 checks Eqs. 13 and 14 on a complete path.
	eq1314 := func(path []geom.Point) bool {
		on := map[geom.Point]bool{}
		for _, p := range path {
			on[p] = true
		}
		cells := path[1 : len(path)-1]
		for i, p := range path {
			n := 0
			for _, q := range p.Neighbors() {
				// Ports see only cells (Eq. 13); cells see cells and
				// the two chosen ports (Eq. 14).
				if on[q] && (i > 0 && i < len(path)-1 || slices.Contains(cells, q)) {
					n++
				}
			}
			if i == 0 || i == len(path)-1 {
				if n != 1 {
					return false
				}
			} else if n != 2 {
				return false
			}
		}
		return true
	}
	best := -1
	var path []geom.Point
	var dfs func(cur geom.Point, covered int)
	dfs = func(cur geom.Point, covered int) {
		for _, n := range cur.Neighbors() {
			if pt := c.PortAt(n); pt != nil && pt.Kind == grid.WastePort && len(path) > 1 && covered == len(tset) {
				full := append(slices.Clone(path), n)
				if eq1314(full) && (best < 0 || len(full) < best) {
					best = len(full)
				}
			}
			if !usable(n) || slices.Contains(path, n) {
				continue
			}
			add := 0
			if tset[n] {
				add = 1
			}
			path = append(path, n)
			dfs(n, covered+add)
			path = path[:len(path)-1]
		}
	}
	for _, fp := range c.FlowPorts() {
		path = []geom.Point{fp.At}
		dfs(fp.At, 0)
	}
	return best
}
