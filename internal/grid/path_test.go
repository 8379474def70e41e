package grid

import (
	"strings"
	"testing"
	"testing/quick"

	"pathdriverwash/internal/geom"
)

func line(y, x0, x1 int) []geom.Point {
	var pts []geom.Point
	if x0 <= x1 {
		for x := x0; x <= x1; x++ {
			pts = append(pts, geom.Pt(x, y))
		}
	} else {
		for x := x0; x >= x1; x-- {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	return pts
}

func TestPathBasics(t *testing.T) {
	p := NewPath(line(0, 0, 3)...)
	if p.Len() != 4 || p.Empty() {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.First() != geom.Pt(0, 0) || p.Last() != geom.Pt(3, 0) {
		t.Fatalf("ends = %v %v", p.First(), p.Last())
	}
	if !p.Contains(geom.Pt(2, 0)) || p.Contains(geom.Pt(4, 0)) {
		t.Error("Contains wrong")
	}
	if NewPath().Len() != 0 || !NewPath().Empty() {
		t.Error("empty path wrong")
	}
}

func TestPathCoveredByAndCovers(t *testing.T) {
	whole := NewPath(line(0, 0, 6)...)
	part := NewPath(line(0, 2, 4)...)
	if !part.CoveredBy(whole) {
		t.Error("part should be covered by whole")
	}
	if whole.CoveredBy(part) {
		t.Error("whole is not covered by part")
	}
	if !whole.Covers([]geom.Point{geom.Pt(1, 0), geom.Pt(5, 0)}) {
		t.Error("Covers failed")
	}
	if whole.Covers([]geom.Point{geom.Pt(1, 1)}) {
		t.Error("Covers false positive")
	}
	if !whole.Covers(nil) {
		t.Error("every path covers the empty target set")
	}
}

func TestPathReverse(t *testing.T) {
	p := NewPath(line(0, 0, 3)...)
	r := p.Reverse()
	if r.First() != p.Last() || r.Last() != p.First() || r.Len() != p.Len() {
		t.Fatalf("Reverse = %v", r)
	}
	if rr := r.Reverse(); rr.String() != p.String() {
		t.Fatal("double reverse changed the path")
	}
}

func TestPathReverseQuick(t *testing.T) {
	f := func(n uint8) bool {
		p := NewPath(line(0, 0, int(n%20))...)
		return p.Reverse().Reverse().String() == p.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathConcat(t *testing.T) {
	a := NewPath(line(0, 0, 2)...)
	b := NewPath(geom.Pt(2, 0), geom.Pt(2, 1))
	j := a.Concat(b)
	if j.Len() != 4 {
		t.Fatalf("Concat dedup failed: %v", j)
	}
	c := NewPath(geom.Pt(3, 0))
	j2 := a.Concat(c)
	if j2.Len() != 4 {
		t.Fatalf("Concat without shared cell: %v", j2)
	}
	if got := NewPath().Concat(a); got.String() != a.String() {
		t.Fatalf("empty.Concat = %v", got)
	}
}

func TestPathValidate(t *testing.T) {
	c := testChip(t)
	good := NewPath(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(2, 1))
	if err := good.Validate(c); err != nil {
		t.Fatalf("good path rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Path
	}{
		{"empty", NewPath()},
		{"non-adjacent", NewPath(geom.Pt(0, 0), geom.Pt(2, 0))},
		{"revisit", NewPath(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 0))},
		{"unroutable", NewPath(geom.Pt(0, 0), geom.Pt(0, 1))},
		{"oob", NewPath(geom.Pt(0, 0), geom.Pt(-1, 0))},
	}
	for _, cs := range cases {
		if err := cs.p.Validate(c); err == nil {
			t.Errorf("%s: expected error", cs.name)
		}
	}
}

func TestPathValidateComplete(t *testing.T) {
	c := testChip(t)
	complete := NewPath(line(0, 0, 7)...)
	if err := complete.ValidateComplete(c); err != nil {
		t.Fatalf("complete path rejected: %v", err)
	}
	if err := complete.Reverse().ValidateComplete(c); err == nil {
		t.Error("reversed path starts at waste port; must fail")
	}
	partial := NewPath(line(0, 1, 6)...)
	if err := partial.ValidateComplete(c); err == nil {
		t.Error("path not ending at ports must fail")
	}
}

func TestPathLengthAndTravel(t *testing.T) {
	c := testChip(t)
	c.CellLengthMM = 2
	c.FlowVelocityMMs = 10
	p := NewPath(line(0, 0, 4)...) // 5 cells -> 10 mm -> 1 s
	if got := p.LengthMM(c); got != 10 {
		t.Errorf("LengthMM = %v", got)
	}
	if got := p.TravelSeconds(c); got != 1 {
		t.Errorf("TravelSeconds = %v", got)
	}
	c.FlowVelocityMMs = 0
	if got := p.TravelSeconds(c); got != 0 {
		t.Errorf("TravelSeconds with v=0 = %v", got)
	}
}

func TestPathString(t *testing.T) {
	p := NewPath(geom.Pt(0, 0), geom.Pt(1, 0))
	if p.String() != "(0,0)->(1,0)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPathDescribe(t *testing.T) {
	c := testChip(t)
	p := NewPath(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(2, 2), geom.Pt(2, 3))
	d := p.Describe(c)
	if !strings.HasPrefix(d, "in1->") {
		t.Errorf("Describe = %q", d)
	}
	if !strings.Contains(d, "mixer") {
		t.Errorf("Describe should collapse device cells: %q", d)
	}
	// The mixer occupies (2,1) and (2,2) on this path; it must appear once.
	if strings.Count(d, "mixer") != 1 {
		t.Errorf("device should appear once: %q", d)
	}
}

func TestCellSetQuick(t *testing.T) {
	f := func(n uint8) bool {
		p := NewPath(line(0, 0, int(n%30))...)
		set := p.CellSet()
		if len(set) != p.Len() {
			return false
		}
		for _, c := range p.Cells {
			if !set[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
