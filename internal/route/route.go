// Package route finds flow paths on a chip grid.
//
// Both the PathDriver-style synthesis substrate and the DAWO baseline
// route with breadth-first search over the routable cells of the chip;
// the PDW wash-path ILP uses the same graph structure but optimizes
// globally (see internal/washpath). This package provides:
//
//   - ShortestPath: BFS shortest path between two cells, avoiding an
//     optional blocked set;
//   - Through: shortest simple path visiting an ordered chain of cells;
//   - FlushPath: the shortest complete [flow port - chain - waste port]
//     path over every port pair and both chain orientations;
//   - Distances: single-source BFS distance table.
//
// Every search runs over the chip's dense cell indices i = y*W + x and
// expands neighbours in N, E, S, W order, so ties break the same way on
// every call. A package function's scratch state belongs to that call; a
// caller with many queries under the same options builds one Search and
// pays for its deny table once.
package route

import (
	"errors"
	"fmt"
	"slices"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// ErrNoPath is returned when the requested route does not exist.
var ErrNoPath = errors.New("route: no path")

// Options tunes a routing query.
type Options struct {
	// Blocked cells may not be used (in addition to non-routable cells).
	// Endpoints may appear in Blocked; they are always allowed. Entries
	// mapped to false are ignored.
	Blocked map[geom.Point]bool
	// AvoidPorts makes intermediate port cells unusable, so routes only
	// touch ports at their endpoints. Injection and removal paths must
	// not flush through an unrelated port.
	AvoidPorts bool
	// AvoidDevices makes intermediate device cells unusable. Wash buffer
	// must not flush through a device holding a fluid unless that device
	// is itself a wash target.
	AvoidDevices map[geom.Point]bool
}

// Per-cell deny flags, built once per call from the chip and Options.
const (
	// denyEnter: not routable, or Blocked. Only a route's destination
	// may be such a cell, and only when it is routable.
	denyEnter uint8 = 1 << iota
	// denyPass: a port under AvoidPorts or an AvoidDevices cell. It may
	// end a route (and gets a distance) but never carries one onward.
	denyPass
)

// cells is the dense index space of one chip.
type cells struct {
	c    *grid.Chip
	w, h int32
}

func cellsOf(c *grid.Chip) cells { return cells{c: c, w: int32(c.W), h: int32(c.H)} }

func (g cells) index(p geom.Point) int32 { return int32(p.Y)*g.w + int32(p.X) }

func (g cells) point(i int32) geom.Point { return geom.Pt(int(i%g.w), int(i/g.w)) }

// neighbours returns i's neighbours in N, E, S, W order, -1 off the grid.
func (g cells) neighbours(i int32) [4]int32 {
	x, y := i%g.w, i/g.w
	nb := [4]int32{-1, -1, -1, -1}
	if y > 0 {
		nb[0] = i - g.w
	}
	if x < g.w-1 {
		nb[1] = i + 1
	}
	if y < g.h-1 {
		nb[2] = i + g.w
	}
	if x > 0 {
		nb[3] = i - 1
	}
	return nb
}

// deny builds the per-cell deny flags of o.
func (g cells) deny(o Options) []uint8 {
	d := make([]uint8, g.w*g.h)
	for i := range d {
		if !g.c.Routable(g.point(int32(i))) {
			d[i] = denyEnter
		}
	}
	for p, b := range o.Blocked {
		if b && g.c.InBounds(p) {
			d[g.index(p)] |= denyEnter
		}
	}
	if o.AvoidPorts {
		for _, pt := range g.c.Ports() {
			d[g.index(pt.At)] |= denyPass
		}
	}
	for p, b := range o.AvoidDevices {
		if b && g.c.InBounds(p) {
			d[g.index(p)] |= denyPass
		}
	}
	return d
}

// Search answers routing queries on one chip under one Options: the
// per-cell deny table is built once, and each query reuses the BFS
// scratch (a visit stamp per cell, where seen[i] == gen marks i as
// visited or excluded for the current query, parent links, and a
// queue). A Search is not safe for concurrent use.
type Search struct {
	cells
	deny  []uint8
	seen  []uint32
	gen   uint32
	prev  []int32
	queue []int32
}

// NewSearch builds the deny table of o on c for a sequence of queries.
func NewSearch(c *grid.Chip, o Options) *Search {
	g := cellsOf(c)
	return &Search{cells: g, deny: g.deny(o)}
}

// next starts a new search generation: every stamp of the previous one
// is forgotten at once. The stamp and parent arrays are made on first
// use, so a Search that only answers Distances never allocates them.
func (s *Search) next() {
	if s.seen == nil {
		n := s.w * s.h
		s.seen, s.prev = make([]uint32, n), make([]int32, n)
	}
	s.gen++
	if s.gen == 0 { // wrapped: old stamps would alias the new generation
		clear(s.seen)
		s.gen = 1
	}
}

// bfs searches from src to dst in the current generation and reports
// whether dst was reached; the route is then read back by appendRoute.
// The source is never tested, and the destination is entered whenever
// it is reached (the caller has checked that it is routable).
func (s *Search) bfs(src, dst int32) bool {
	s.seen[src] = s.gen
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		p := s.queue[head]
		for _, n := range s.neighbours(p) {
			if n < 0 || s.seen[n] == s.gen {
				continue
			}
			if n != dst && s.deny[n] != 0 {
				continue
			}
			s.seen[n] = s.gen
			s.prev[n] = p
			if n == dst {
				return true
			}
			s.queue = append(s.queue, n)
		}
	}
	return false
}

// appendRoute appends the cells after src on the route bfs found to dst.
func (s *Search) appendRoute(out []geom.Point, src, dst int32) []geom.Point {
	n := 0
	for i := dst; i != src; i = s.prev[i] {
		n++
	}
	out = slices.Grow(out, n)[:len(out)+n]
	k := len(out) - 1
	for i := dst; i != src; i = s.prev[i] {
		out[k] = s.point(i)
		k--
	}
	return out
}

func checkEnds(c *grid.Chip, src, dst geom.Point) error {
	if !c.InBounds(src) || !c.Routable(src) {
		return fmt.Errorf("route: source %v is not routable", src)
	}
	if !c.InBounds(dst) || !c.Routable(dst) {
		return fmt.Errorf("route: destination %v is not routable", dst)
	}
	return nil
}

func noPath(src, dst geom.Point) error {
	return fmt.Errorf("%w from %v to %v", ErrNoPath, src, dst)
}

// legError is a Through leg that has no route. It is formatted only
// when read: FlushPath discards most of the ones it meets.
type legError struct {
	leg      int
	src, dst geom.Point
}

func (e *legError) Error() string {
	return fmt.Sprintf("route: leg %d (%v to %v): %v", e.leg, e.src, e.dst, noPath(e.src, e.dst))
}

func (e *legError) Unwrap() error { return ErrNoPath }

// ShortestPath returns a BFS shortest path from src to dst over routable
// cells subject to the options. The result includes both endpoints.
func ShortestPath(c *grid.Chip, src, dst geom.Point, o Options) (grid.Path, error) {
	return NewSearch(c, o).ShortestPath(src, dst, nil)
}

// ShortestPath is the package's ShortestPath under the Search's options,
// with the cells of blocked also unusable for this query only: the
// answer is the one Options.Blocked holding those cells would give.
// As there, src and dst are always allowed, and cells off the chip are
// ignored.
func (s *Search) ShortestPath(src, dst geom.Point, blocked []geom.Point) (grid.Path, error) {
	if err := checkEnds(s.c, src, dst); err != nil {
		return grid.Path{}, err
	}
	if src == dst {
		return grid.NewPath(src), nil
	}
	s.next()
	for _, p := range blocked {
		if p != dst && s.c.InBounds(p) {
			s.seen[s.index(p)] = s.gen
		}
	}
	if !s.bfs(s.index(src), s.index(dst)) {
		return grid.Path{}, noPath(src, dst)
	}
	return grid.NewPath(s.appendRoute([]geom.Point{src}, s.index(src), s.index(dst))...), nil
}

// Through routes a simple path visiting the waypoints in order. Each leg
// is a BFS shortest path that additionally avoids the cells already used
// by earlier legs, keeping the overall path simple. Returns ErrNoPath if
// any leg cannot be completed without revisiting.
func Through(c *grid.Chip, waypoints []geom.Point, o Options) (grid.Path, error) {
	return NewSearch(c, o).Through(waypoints)
}

// Through is the package's Through under the Search's options.
func (s *Search) Through(waypoints []geom.Point) (grid.Path, error) {
	if len(waypoints) < 2 {
		return grid.Path{}, errors.New("route: Through needs at least two waypoints")
	}
	p, err := s.through(waypoints, nil)
	if err != nil {
		return grid.Path{}, err
	}
	return grid.NewPath(p...), nil
}

// through is Through building its cells into out[:0]. The (possibly
// grown) buffer is returned even on error, so callers can reuse it.
func (s *Search) through(waypoints, out []geom.Point) ([]geom.Point, error) {
	out = append(out[:0], waypoints[0])
	for i := 0; i+1 < len(waypoints); i++ {
		src, dst := waypoints[i], waypoints[i+1]
		if err := checkEnds(s.c, src, dst); err != nil {
			return out, fmt.Errorf("route: leg %d (%v to %v): %w", i, src, dst, err)
		}
		if src == dst {
			continue // a one-cell leg adds nothing
		}
		// Earlier legs' cells and the waypoints still ahead are off
		// limits: routing through either would revisit a cell. The
		// destination stays enterable even when it is one of them.
		s.next()
		for _, p := range out {
			if p != dst {
				s.seen[s.index(p)] = s.gen
			}
		}
		for _, p := range waypoints[i+2:] {
			if p != dst && s.c.InBounds(p) {
				s.seen[s.index(p)] = s.gen
			}
		}
		if !s.bfs(s.index(src), s.index(dst)) {
			return out, &legError{leg: i, src: src, dst: dst}
		}
		out = s.appendRoute(out, s.index(src), s.index(dst))
	}
	// A leg may end on a cell an earlier leg used (a repeated waypoint).
	if err := grid.NewPath(out...).Validate(s.c); err != nil {
		return out, fmt.Errorf("route: Through produced invalid path: %w", err)
	}
	return out, nil
}

// Dist is a single-source hop-distance table over a chip's cells, as
// returned by Distances.
type Dist struct {
	w, h int
	d    []int32 // by cell index; -1 when unreached
}

// At returns the hop distance to p and whether p was reached.
func (d Dist) At(p geom.Point) (int, bool) {
	if p.X < 0 || p.X >= d.w || p.Y < 0 || p.Y >= d.h {
		return 0, false
	}
	if v := d.d[p.Y*d.w+p.X]; v >= 0 {
		return int(v), true
	}
	return 0, false
}

// Distances returns the BFS hop distance from src to every reachable
// routable cell, subject to the options. src has distance 0. Cells that
// Options forbid as intermediates (avoided ports and devices) get a
// distance, since each may end a later query, but are not expanded.
// An out-of-bounds src reaches nothing.
func Distances(c *grid.Chip, src geom.Point, o Options) Dist {
	return NewSearch(c, o).Distances(src)
}

// Distances is the package's Distances under the Search's options.
func (s *Search) Distances(src geom.Point) Dist {
	dist := make([]int32, s.w*s.h)
	for i := range dist {
		dist[i] = -1
	}
	out := Dist{w: s.c.W, h: s.c.H, d: dist}
	if !s.c.InBounds(src) {
		return out
	}
	i := s.index(src)
	dist[i] = 0
	q := append(s.queue[:0], i)
	for head := 0; head < len(q); head++ {
		p := q[head]
		for _, n := range s.neighbours(p) {
			if n < 0 || dist[n] >= 0 || s.deny[n]&denyEnter != 0 {
				continue
			}
			dist[n] = dist[p] + 1
			if s.deny[n]&denyPass == 0 {
				q = append(q, n)
			}
		}
	}
	s.queue = q
	return out
}
