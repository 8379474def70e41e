package synth

import (
	"fmt"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// Topology selects the generated chip's channel architecture.
type Topology int

// Chip topologies.
const (
	// StreetGrid is the default Manhattan mesh: channels on every third
	// row and column, devices in the blocks between.
	StreetGrid Topology = iota
	// Ring places all devices around a single loop channel with one
	// cross spine — the compact architecture of many fabricated chips.
	// Paths contend for the loop, so wash scheduling pressure is higher.
	Ring
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case StreetGrid:
		return "street-grid"
	case Ring:
		return "ring"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// buildRingChip arranges the devices around a rectangular loop channel:
// devices sit outside the loop touching it, ports hang off the loop's
// outer corners, and a central cross spine gives the router one
// shortcut so the loop does not become a single point of contention.
//
// Layout sketch for six devices (D blocks, - loop, + spine, I/O ports):
//
//	. I . . . . . . .
//	. - - - - - - - .
//	. - D D . D D - .
//	. - . . + . . - .
//	. - + + + + + - .
//	. - . . + . . - .
//	. - D D . D D - .
//	. - - - - - - - O
//	. . . . . . . . .
func buildRingChip(name string, specs []DeviceSpec, cfg Config) (*grid.Chip, error) {
	total := 0
	for _, s := range specs {
		total += s.Count
	}
	if total == 0 {
		return nil, fmt.Errorf("synth: ring chip with no devices")
	}
	// Devices split over the top and bottom inner rows; each block is
	// blockSize wide plus a 1-cell gap.
	perRow := (total + 1) / 2
	innerW := perRow*(blockSize+1) + 1
	w := innerW + 4 // ring + margin on both sides
	h := 3*blockSize + 8
	chip := grid.NewChip(name, w, h)
	if cfg.CellLengthMM > 0 {
		chip.CellLengthMM = cfg.CellLengthMM
	}
	if cfg.FlowVelocityMMs > 0 {
		chip.FlowVelocityMMs = cfg.FlowVelocityMMs
	}
	if cfg.DissolutionS > 0 {
		chip.DissolutionS = cfg.DissolutionS
	}

	left, right := 1, w-2
	top, bottom := 1, h-2

	// Devices first (AddChannel skips occupied cells).
	idx := 0
	counts := map[grid.DeviceKind]int{}
	for _, s := range specs {
		for c := 0; c < s.Count; c++ {
			row := idx % 2 // alternate top/bottom
			col := idx / 2
			x0 := left + 1 + col*(blockSize+1)
			y0 := top + 1
			if row == 1 {
				y0 = bottom - blockSize
			}
			counts[s.Kind]++
			id := fmt.Sprintf("%s%d", s.Kind, counts[s.Kind])
			if _, err := chip.AddDevice(id, s.Kind, geom.Rc(x0, y0, x0+blockSize, y0+blockSize)); err != nil {
				return nil, fmt.Errorf("synth: ring device %s: %w", id, err)
			}
			idx++
		}
	}

	// Ports on the outer boundary adjacent to ring corners and edge
	// midpoints.
	nf := cfg.FlowPorts
	if nf <= 0 {
		nf = max(2, (total+2)/3)
	}
	nw := cfg.WastePorts
	if nw <= 0 {
		nw = max(2, (total+2)/3)
	}
	flowSpots := []geom.Point{
		{X: left, Y: 0}, {X: 0, Y: top}, {X: w / 2, Y: 0}, {X: 0, Y: h / 2},
		{X: left + 2, Y: 0}, {X: 0, Y: top + 2},
	}
	wasteSpots := []geom.Point{
		{X: right, Y: h - 1}, {X: w - 1, Y: bottom}, {X: w / 2, Y: h - 1}, {X: w - 1, Y: h / 2},
		{X: right - 2, Y: h - 1}, {X: w - 1, Y: bottom - 2},
	}
	if nf > len(flowSpots) {
		nf = len(flowSpots)
	}
	if nw > len(wasteSpots) {
		nw = len(wasteSpots)
	}
	for i := 0; i < nf; i++ {
		if _, err := chip.AddPort(fmt.Sprintf("in%d", i+1), grid.FlowPort, flowSpots[i]); err != nil {
			return nil, fmt.Errorf("synth: ring flow port: %w", err)
		}
	}
	for i := 0; i < nw; i++ {
		if _, err := chip.AddPort(fmt.Sprintf("out%d", i+1), grid.WastePort, wasteSpots[i]); err != nil {
			return nil, fmt.Errorf("synth: ring waste port: %w", err)
		}
	}

	// The loop.
	for x := left; x <= right; x++ {
		if err := chip.AddChannel(geom.Pt(x, top)); err != nil {
			return nil, err
		}
		if err := chip.AddChannel(geom.Pt(x, bottom)); err != nil {
			return nil, err
		}
	}
	for y := top; y <= bottom; y++ {
		if err := chip.AddChannel(geom.Pt(left, y)); err != nil {
			return nil, err
		}
		if err := chip.AddChannel(geom.Pt(right, y)); err != nil {
			return nil, err
		}
	}
	// Inner access rows so every device touches a channel, plus the
	// central spine connecting them.
	accessTop := top + 1 + blockSize
	accessBottom := bottom - 1 - blockSize
	for x := left + 1; x < right; x++ {
		if err := chip.AddChannel(geom.Pt(x, accessTop)); err != nil {
			return nil, err
		}
		if err := chip.AddChannel(geom.Pt(x, accessBottom)); err != nil {
			return nil, err
		}
	}
	mid := w / 2
	for y := accessTop; y <= accessBottom; y++ {
		if err := chip.AddChannel(geom.Pt(mid, y)); err != nil {
			return nil, err
		}
	}

	if err := chip.Validate(); err != nil {
		return nil, fmt.Errorf("synth: ring chip: %w", err)
	}
	return chip, nil
}
