package grid

import (
	"fmt"
	"strings"

	"pathdriverwash/internal/geom"
)

// Path is a flow path on the chip: a sequence of pairwise-adjacent,
// non-repeating routable cells. Complete flow paths start at a flow port
// and end at a waste port ([flow port — cells — waste port]); partial
// paths (e.g. the contaminated sub-segment of a transport) are also
// represented with this type.
type Path struct {
	Cells []geom.Point
}

// NewPath wraps the cell sequence without validating it; call Validate
// against a chip to check adjacency, simplicity, and routability.
func NewPath(cells ...geom.Point) Path { return Path{Cells: cells} }

// Len returns the number of cells on the path.
func (p Path) Len() int { return len(p.Cells) }

// Empty reports whether the path has no cells.
func (p Path) Empty() bool { return len(p.Cells) == 0 }

// First returns the first cell. It panics on an empty path.
func (p Path) First() geom.Point { return p.Cells[0] }

// Last returns the last cell. It panics on an empty path.
func (p Path) Last() geom.Point { return p.Cells[len(p.Cells)-1] }

// Contains reports whether the path visits cell q.
func (p Path) Contains(q geom.Point) bool {
	for _, c := range p.Cells {
		if c == q {
			return true
		}
	}
	return false
}

// CellSet returns the path's cells as a set.
func (p Path) CellSet() map[geom.Point]bool {
	s := make(map[geom.Point]bool, len(p.Cells))
	for _, c := range p.Cells {
		s[c] = true
	}
	return s
}

// Overlaps reports whether the two paths share at least one cell.
// Concurrent fluidic tasks with overlapping paths conflict (Eq. 8/19/20).
func (p Path) Overlaps(q Path) bool {
	if p.Len() == 0 || q.Len() == 0 {
		return false
	}
	a, b := p, q
	if a.Len() > b.Len() {
		a, b = b, a
	}
	// Mark a's cells in a bitset over a's bounding box.
	lo, hi := a.Cells[0], a.Cells[0]
	for _, c := range a.Cells[1:] {
		lo.X, lo.Y = min(lo.X, c.X), min(lo.Y, c.Y)
		hi.X, hi.Y = max(hi.X, c.X), max(hi.Y, c.Y)
	}
	w := hi.X - lo.X + 1
	var buf [64]uint64
	bits := cellBits(&buf, w*(hi.Y-lo.Y+1))
	for _, c := range a.Cells {
		bits.set((c.Y-lo.Y)*w + c.X - lo.X)
	}
	for _, c := range b.Cells {
		if c.X >= lo.X && c.X <= hi.X && c.Y >= lo.Y && c.Y <= hi.Y && bits.has((c.Y-lo.Y)*w+c.X-lo.X) {
			return true
		}
	}
	return false
}

// bitset is a set of small non-negative integers (cell indices).
type bitset []uint64

// cellBits returns an empty bitset for n indices, backed by buf when it
// fits, so the common case allocates nothing.
func cellBits(buf *[64]uint64, n int) bitset {
	words := (n + 63) / 64
	if words > len(buf) {
		return make(bitset, words)
	}
	return buf[:words]
}

func (s bitset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// SharedCells returns the cells visited by both paths.
func (p Path) SharedCells(q Path) []geom.Point {
	set := p.CellSet()
	var out []geom.Point
	for _, c := range q.Cells {
		if set[c] {
			out = append(out, c)
			delete(set, c) // report each shared cell once
		}
	}
	return out
}

// CoveredBy reports whether every cell of p lies on q (l_p ⊆ l_q in
// the ψ-integration test of Eq. 21).
func (p Path) CoveredBy(q Path) bool {
	set := q.CellSet()
	for _, c := range p.Cells {
		if !set[c] {
			return false
		}
	}
	return true
}

// Covers reports whether the path visits every target cell (Eq. 15).
func (p Path) Covers(targets []geom.Point) bool {
	set := p.CellSet()
	for _, t := range targets {
		if !set[t] {
			return false
		}
	}
	return true
}

// LengthMM returns the physical path length L(l) on the given chip in mm,
// counting the channel length represented by each visited cell.
func (p Path) LengthMM(c *Chip) float64 { return c.CellLengthOf(p.Len()) }

// TravelSeconds returns the flush time L(l)/v_f of Eq. (17), in seconds.
func (p Path) TravelSeconds(c *Chip) float64 {
	if c.FlowVelocityMMs <= 0 {
		return 0
	}
	return p.LengthMM(c) / c.FlowVelocityMMs
}

// Reverse returns the path traversed in the opposite direction.
func (p Path) Reverse() Path {
	out := make([]geom.Point, len(p.Cells))
	for i, c := range p.Cells {
		out[len(p.Cells)-1-i] = c
	}
	return Path{Cells: out}
}

// Concat joins p and q. If p's last cell equals q's first cell the
// duplicate is dropped. The result is not validated.
func (p Path) Concat(q Path) Path {
	if p.Empty() {
		return Path{Cells: append([]geom.Point(nil), q.Cells...)}
	}
	out := append([]geom.Point(nil), p.Cells...)
	rest := q.Cells
	if len(rest) > 0 && p.Last() == rest[0] {
		rest = rest[1:]
	}
	return Path{Cells: append(out, rest...)}
}

// Validate checks the path invariants on the chip: non-empty, every cell
// routable and in bounds, consecutive cells adjacent, and no repeated
// cell (flow paths are simple).
func (p Path) Validate(c *Chip) error {
	if p.Empty() {
		return fmt.Errorf("grid: empty path")
	}
	var buf [64]uint64
	seen := cellBits(&buf, c.W*c.H)
	for i, cell := range p.Cells {
		if !c.InBounds(cell) {
			return fmt.Errorf("grid: path cell %v out of bounds", cell)
		}
		if !c.Routable(cell) {
			return fmt.Errorf("grid: path cell %v is not routable (%s)", cell, c.KindAt(cell))
		}
		if seen.has(c.idx(cell)) {
			return fmt.Errorf("grid: path revisits cell %v", cell)
		}
		seen.set(c.idx(cell))
		if i > 0 && !p.Cells[i-1].Adjacent(cell) {
			return fmt.Errorf("grid: path cells %v and %v are not adjacent", p.Cells[i-1], cell)
		}
	}
	return nil
}

// ValidateComplete additionally requires the path to start at a flow port
// and end at a waste port — the shape of every complete wash path
// (Eq. 12) and every injection/removal path.
func (p Path) ValidateComplete(c *Chip) error {
	if err := p.Validate(c); err != nil {
		return err
	}
	if pt := c.PortAt(p.First()); pt == nil || pt.Kind != FlowPort {
		return fmt.Errorf("grid: complete path must start at a flow port, starts at %v (%s)", p.First(), c.KindAt(p.First()))
	}
	if pt := c.PortAt(p.Last()); pt == nil || pt.Kind != WastePort {
		return fmt.Errorf("grid: complete path must end at a waste port, ends at %v (%s)", p.Last(), c.KindAt(p.Last()))
	}
	return nil
}

// String renders the path in the paper's arrow notation, substituting
// port and device IDs where the chip is unknown: "(0,3)->(1,3)->...".
func (p Path) String() string {
	parts := make([]string, len(p.Cells))
	for i, c := range p.Cells {
		parts[i] = c.String()
	}
	return strings.Join(parts, "->")
}

// Describe renders the path in the paper's Table I notation using the
// chip's port and device names, collapsing consecutive cells of the same
// device: "in1->s(1,3)->mixer->out2".
func (p Path) Describe(c *Chip) string {
	var parts []string
	var lastDev *Device
	for _, cell := range p.Cells {
		if pt := c.PortAt(cell); pt != nil {
			parts = append(parts, pt.ID)
			lastDev = nil
			continue
		}
		if d := c.DeviceAt(cell); d != nil {
			if d == lastDev {
				continue
			}
			parts = append(parts, d.ID)
			lastDev = d
			continue
		}
		parts = append(parts, fmt.Sprintf("s%v", cell))
		lastDev = nil
	}
	return strings.Join(parts, "->")
}
