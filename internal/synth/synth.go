// Package synth is the PathDriver-like architectural synthesis substrate
// ([7]/[12] in the paper). PDW consumes the outputs of that closed-source
// tool: a chip architecture on a virtual grid and a wash-free assay
// scheduling whose fluidic tasks carry complete flow paths. This package
// reproduces those outputs from scratch:
//
//   - placement: devices are placed in 2x2 blocks on a Manhattan street
//     grid (channels on every third row/column), ports on the boundary;
//   - binding: operations are bound to devices of the required kind,
//     load-balanced;
//   - routing: every fluidic task gets a complete flow path
//     [flow port - source - target - waste port] found with BFS;
//   - scheduling: a conflict-free list schedule at 1 s granularity that
//     satisfies every constraint family of Sec. III (verified by
//     schedule.Validate).
//
// Physical model (documented in DESIGN.md): a fluidic task moves a plug
// from segment start A to segment end B along its path; the channel
// cells strictly between A and B plus the first cell past B (squeezed
// excess) are left contaminated with the task's fluid, and the last two
// channel cells before B cache excess fluid that a separate removal task
// p_{j,i,2} must flush before the consuming operation starts (Sec. II-B).
package synth

import (
	"context"
	"fmt"
	"math"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// DeviceSpec requests Count devices of the given kind in the library.
type DeviceSpec struct {
	Kind  grid.DeviceKind
	Count int
}

// Config tunes synthesis. Zero values select defaults.
type Config struct {
	// Devices is the device library. If nil, one device per kind the
	// assay needs is created.
	Devices []DeviceSpec
	// FlowPorts and WastePorts set the number of boundary ports
	// (default: max(2, ceil(devices/3)) each).
	FlowPorts, WastePorts int
	// CellLengthMM, FlowVelocityMMs, DissolutionS set the chip physical
	// parameters (defaults 1 mm, 10 mm/s, 2 s — the paper's v_f).
	CellLengthMM, FlowVelocityMMs, DissolutionS float64
	// OptimizePlacement runs the deterministic placement hill climb,
	// moving communicating devices closer together before routing.
	// Off by default so results stay comparable with EXPERIMENTS.md.
	OptimizePlacement bool
	// Topology selects the channel architecture (default StreetGrid).
	Topology Topology
}

// Result is the synthesis output: PDW's input.
type Result struct {
	Chip *grid.Chip
	// Schedule is the wash-free execution procedure.
	Schedule *schedule.Schedule
	// Binding maps operation IDs to devices.
	Binding map[string]*grid.Device
}

const (
	blockSize = 2 // device block edge in cells
	pitch     = 3 // street-grid pitch: channel every pitch-th row/column
)

// Synthesize builds a chip and a wash-free schedule for the assay.
func Synthesize(a *assay.Assay, cfg Config) (*Result, error) {
	return SynthesizeContext(context.Background(), a, cfg)
}

// SynthesizeContext is Synthesize under a context. Synthesis has no
// meaningful partial result (a half-scheduled assay is not feasible),
// so cancellation — at entry or mid-run — aborts with
// ErrBudgetExceeded. The placement, binding, routing, and scheduling
// loops poll the context through an amortized solve.Checkpoint, so a
// deadline lands within one checkpoint stride of loop work instead of
// at the next phase boundary (the cancellation granularity contract in
// DESIGN.md).
func SynthesizeContext(ctx context.Context, a *assay.Assay, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, budgetErr(err)
	}
	ctx, span := obs.Start(ctx, "synth.synthesize", obs.A("assay", a.Name))
	defer span.End()
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %w: %w", solve.ErrInvalidAssay, err)
	}
	specs := cfg.Devices
	if specs == nil {
		for _, k := range a.DeviceKindsNeeded() {
			specs = append(specs, DeviceSpec{Kind: k, Count: 1})
		}
	}
	if err := checkLibrary(a, specs); err != nil {
		return nil, err
	}
	if cfg.Topology == Ring {
		t0 := time.Now()
		chip, err := buildRingChip(a.Name, specs, cfg)
		if err != nil {
			return nil, err
		}
		obs.RecordSpan(ctx, "synth.placement", t0, time.Since(t0), obs.A("mode", "ring"))
		return SynthesizeOnChipContext(ctx, a, chip)
	}
	if cfg.OptimizePlacement {
		cp := solve.NewCheckpoint(ctx)
		t0 := time.Now()
		chip, binding, err := optimizePlacement(a, specs, cfg, &cp)
		if err != nil {
			return nil, err
		}
		obs.RecordSpan(ctx, "synth.placement", t0, time.Since(t0), obs.A("mode", "optimized"))
		t0 = time.Now()
		sched, err := buildSchedule(a, chip, binding, &cp)
		if err != nil {
			return nil, err
		}
		obs.RecordSpan(ctx, "synth.schedule", t0, time.Since(t0),
			obs.A("tasks", len(sched.Tasks())))
		return &Result{Chip: chip, Schedule: sched, Binding: binding}, nil
	}
	t0 := time.Now()
	chip, err := buildChip(a.Name, specs, cfg)
	if err != nil {
		return nil, err
	}
	obs.RecordSpan(ctx, "synth.placement", t0, time.Since(t0), obs.A("mode", "street-grid"))
	return SynthesizeOnChipContext(ctx, a, chip)
}

// SynthesizeOnChip binds and schedules the assay on a caller-provided
// chip architecture (e.g. the paper's hand-drawn Fig. 2(a) layout)
// instead of generating one.
func SynthesizeOnChip(a *assay.Assay, chip *grid.Chip) (*Result, error) {
	return SynthesizeOnChipContext(context.Background(), a, chip)
}

// SynthesizeOnChipContext is SynthesizeOnChip under a context, with the
// same checkpointed mid-run cancellation contract as SynthesizeContext.
func SynthesizeOnChipContext(ctx context.Context, a *assay.Assay, chip *grid.Chip) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, budgetErr(err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %w: %w", solve.ErrInvalidAssay, err)
	}
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	cp := solve.NewCheckpoint(ctx)
	t0 := time.Now()
	binding, err := bind(a, chip, &cp)
	if err != nil {
		return nil, err
	}
	obs.RecordSpan(ctx, "synth.bind", t0, time.Since(t0), obs.A("ops", len(binding)))
	t0 = time.Now()
	sched, err := buildSchedule(a, chip, binding, &cp)
	if err != nil {
		return nil, err
	}
	obs.RecordSpan(ctx, "synth.schedule", t0, time.Since(t0),
		obs.A("tasks", len(sched.Tasks())))
	return &Result{Chip: chip, Schedule: sched, Binding: binding}, nil
}

// budgetErr wraps a checkpoint cancellation in the synth error
// contract: callers classify it with errors.Is(err, ErrBudgetExceeded)
// and errors.Is(err, ctx.Err()).
func budgetErr(err error) error {
	return fmt.Errorf("synth: %w: %w", solve.ErrBudgetExceeded, err)
}

func checkLibrary(a *assay.Assay, specs []DeviceSpec) error {
	have := map[grid.DeviceKind]int{}
	for _, s := range specs {
		if s.Count <= 0 {
			return fmt.Errorf("synth: device spec %s has count %d", s.Kind, s.Count)
		}
		have[s.Kind] += s.Count
	}
	for _, k := range a.DeviceKindsNeeded() {
		if have[k] == 0 {
			return fmt.Errorf("synth: assay %q needs a %s but the library has none: %w",
				a.Name, k, solve.ErrInfeasible)
		}
	}
	return nil
}

// buildChip places devices on an interior street grid and hangs ports
// off the otherwise-empty boundary ring. Ports are dead-end stubs whose
// single neighbour is a street end, so through-traffic never has to
// cross a port cell and the perimeter streets stay open in all
// directions (this matters: on a sparse street grid, a port sitting in
// the middle of a boundary street would wall off whole quadrants).
func buildChip(name string, specs []DeviceSpec, cfg Config) (*grid.Chip, error) {
	total := 0
	for _, s := range specs {
		total += s.Count
	}
	cols := int(math.Ceil(math.Sqrt(float64(total))))
	rows := (total + cols - 1) / cols
	// Interior streets at x,y = 1, 1+pitch, ...; boundary ring for ports.
	w := cols*pitch + 3
	h := rows*pitch + 3
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

	// Devices: blockSize x blockSize blocks between the streets.
	idx := 0
	counts := map[grid.DeviceKind]int{}
	for _, s := range specs {
		for c := 0; c < s.Count; c++ {
			r, cc := idx/cols, idx%cols
			x0, y0 := cc*pitch+2, r*pitch+2
			counts[s.Kind]++
			id := fmt.Sprintf("%s%d", s.Kind, counts[s.Kind])
			if _, err := chip.AddDevice(id, s.Kind, geom.Rc(x0, y0, x0+blockSize, y0+blockSize)); err != nil {
				return nil, err
			}
			idx++
		}
	}

	// Ports at boundary stubs aligned with street ends: flow ports over
	// top+left, waste ports over bottom+right, so wash-path port
	// selection (Eq. 12) has real choices on every side.
	nf := cfg.FlowPorts
	if nf <= 0 {
		nf = maxInt(2, (total+2)/3)
	}
	nw := cfg.WastePorts
	if nw <= 0 {
		nw = maxInt(2, (total+2)/3)
	}
	xStreets := streetCoords(cols)
	yStreets := streetCoords(rows)
	for i := 0; i < nf; i++ {
		at := portSpot(w, h, xStreets, yStreets, i, nf, true)
		if _, err := chip.AddPort(fmt.Sprintf("in%d", i+1), grid.FlowPort, at); err != nil {
			return nil, fmt.Errorf("synth: flow port %d: %w", i+1, err)
		}
	}
	for i := 0; i < nw; i++ {
		at := portSpot(w, h, xStreets, yStreets, i, nw, false)
		if _, err := chip.AddPort(fmt.Sprintf("out%d", i+1), grid.WastePort, at); err != nil {
			return nil, fmt.Errorf("synth: waste port %d: %w", i+1, err)
		}
	}

	// Interior street channels.
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			if (x-1)%pitch == 0 || (y-1)%pitch == 0 {
				if err := chip.AddChannel(geom.Pt(x, y)); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	return chip, nil
}

// streetCoords returns the street coordinates 1, 1+pitch, ..., 1+n*pitch.
func streetCoords(blocks int) []int {
	var out []int
	for i := 0; i <= blocks; i++ {
		out = append(out, 1+i*pitch)
	}
	return out
}

// portSpot distributes port i of n over two edges, snapped to street
// ends: flow ports over top+left, waste ports over bottom+right.
func portSpot(w, h int, xs, ys []int, i, n int, flow bool) geom.Point {
	half := (n + 1) / 2
	if flow {
		if i < half { // top edge, above a street column
			return geom.Pt(pick(xs, i, half), 0)
		}
		return geom.Pt(0, pick(ys, i-half, n-half))
	}
	if i < half { // bottom edge
		return geom.Pt(pick(xs, i, half), h-1)
	}
	return geom.Pt(w-1, pick(ys, i-half, n-half))
}

// pick spreads index i of n over the candidate coordinates.
func pick(cands []int, i, n int) int {
	if n <= 0 {
		n = 1
	}
	idx := (i + 1) * len(cands) / (n + 1)
	if idx >= len(cands) {
		idx = len(cands) - 1
	}
	return cands[idx]
}

// bind assigns each operation a device of the required kind,
// load-balancing by operation count per device.
func bind(a *assay.Assay, chip *grid.Chip, cp *solve.Checkpoint) (map[string]*grid.Device, error) {
	byKind := map[grid.DeviceKind][]*grid.Device{}
	for _, d := range chip.Devices() {
		byKind[d.Kind] = append(byKind[d.Kind], d)
	}
	load := map[string]int{}
	binding := map[string]*grid.Device{}
	order, err := a.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		if err := cp.Check(); err != nil {
			return nil, budgetErr(err)
		}
		op := a.Op(id)
		kind := assay.DeviceKindFor(op.Kind)
		cands := byKind[kind]
		if len(cands) == 0 {
			return nil, fmt.Errorf("synth: no %s device for op %s: %w", kind, id, solve.ErrInfeasible)
		}
		best := cands[0]
		for _, d := range cands[1:] {
			if load[d.ID] < load[best.ID] {
				best = d
			}
		}
		load[best.ID]++
		binding[id] = best
	}
	return binding, nil
}

// deviceEntry returns the device cell nearest to p by BFS distance.
func deviceEntry(chip *grid.Chip, d *grid.Device, dist route.Dist) geom.Point {
	best := d.Cells()[0]
	bestD := math.MaxInt32
	for _, c := range d.Cells() {
		if dd, ok := dist.At(c); ok && dd < bestD {
			best, bestD = c, dd
		}
	}
	return best
}

// routeComplete builds a complete flow path fp -> (src device) -> (dst
// device) -> wp, picking the nearest usable flow and waste ports. src
// may be nil (injection directly to dst). Avoids flushing through
// unrelated devices and intermediate ports. Every query of one call,
// including the exhaustive retry's, shares one route.Search.
func routeComplete(chip *grid.Chip, src, dst *grid.Device, cp *solve.Checkpoint) (grid.Path, error) {
	if err := cp.Check(); err != nil {
		return grid.Path{}, budgetErr(err)
	}
	avoid := map[geom.Point]bool{}
	for _, d := range chip.Devices() {
		if d == src || d == dst {
			continue
		}
		for _, c := range d.Cells() {
			avoid[c] = true
		}
	}
	rs := route.NewSearch(chip, route.Options{AvoidPorts: true, AvoidDevices: avoid})

	// Waypoints through the devices: enter src nearest to some flow
	// port, exit towards dst, then on to the nearest waste port.
	headDev := dst
	if src != nil {
		headDev = src
	}
	distFromHead := rs.Distances(headDev.Center())
	fp, _ := pickPort(chip, grid.FlowPort, distFromHead)
	if fp == nil {
		return grid.Path{}, fmt.Errorf("synth: no reachable flow port for %s", headDev.ID)
	}
	distFromDst := rs.Distances(dst.Center())
	wp, _ := pickPort(chip, grid.WastePort, distFromDst)
	if wp == nil {
		return grid.Path{}, fmt.Errorf("synth: no reachable waste port for %s", dst.ID)
	}

	var waypoints []geom.Point
	waypoints = append(waypoints, fp.At)
	if src != nil {
		distFP := rs.Distances(fp.At)
		enter := deviceEntry(chip, src, distFP)
		waypoints = append(waypoints, enter)
		distSrc := rs.Distances(enter)
		waypoints = append(waypoints, deviceEntry(chip, dst, distSrc))
	} else {
		distFP := rs.Distances(fp.At)
		waypoints = append(waypoints, deviceEntry(chip, dst, distFP))
	}
	waypoints = append(waypoints, wp.At)

	p, err := rs.Through(waypoints)
	if err != nil {
		// Port choice may be blocked by the disjointness requirement;
		// retry over all port pairs in distance order.
		return routeCompleteExhaustive(chip, rs, src, dst, cp)
	}
	if err := p.ValidateComplete(chip); err != nil {
		return grid.Path{}, err
	}
	return p, nil
}

func routeCompleteExhaustive(chip *grid.Chip, rs *route.Search, src, dst *grid.Device, cp *solve.Checkpoint) (grid.Path, error) {
	// Routing the legs outward-in starves the later legs of corridors on
	// a sparse street grid, so the plug leg (src -> dst, the part that
	// matters most) is routed first over the virgin grid; the flow-port
	// approach and the waste-port exit are attached around it, each
	// avoiding the cells already committed (blocked per query, its own
	// endpoint excepted). Every (entry, port) pairing is tried and the
	// shortest valid complete path wins.
	srcEntries := []geom.Point{{X: -1, Y: -1}} // sentinel: no src leg
	if src != nil {
		srcEntries = src.Cells()
	}
	var best grid.Path
	for _, se := range srcEntries {
		for _, de := range dst.Cells() {
			if err := cp.Check(); err != nil {
				return grid.Path{}, budgetErr(err)
			}
			var plug grid.Path
			if src != nil {
				var err error
				plug, err = rs.ShortestPath(se, de, nil)
				if err != nil {
					continue
				}
			} else {
				plug = grid.NewPath(de)
			}
			head := plug.First()
			for _, fp := range chip.FlowPorts() {
				if err := cp.Check(); err != nil {
					return grid.Path{}, budgetErr(err)
				}
				approach, err := rs.ShortestPath(fp.At, head, plug.Cells)
				if err != nil {
					continue
				}
				half := approach.Concat(plug)
				if half.Validate(chip) != nil {
					continue
				}
				tail := half.Last()
				for _, wp := range chip.WastePorts() {
					if err := cp.Check(); err != nil {
						return grid.Path{}, budgetErr(err)
					}
					exit, err := rs.ShortestPath(tail, wp.At, half.Cells)
					if err != nil {
						continue
					}
					full := half.Concat(exit)
					if full.ValidateComplete(chip) != nil {
						continue
					}
					if best.Empty() || full.Len() < best.Len() {
						best = full
					}
				}
			}
		}
	}
	if best.Empty() {
		return grid.Path{}, fmt.Errorf("synth: cannot route complete path to %s", dst.ID)
	}
	return best, nil
}

// pickPort returns the port of the kind with the smallest distance value.
func pickPort(chip *grid.Chip, kind grid.PortKind, dist route.Dist) (*grid.Port, int) {
	var best *grid.Port
	bestD := math.MaxInt32
	for _, p := range chip.Ports() {
		if p.Kind != kind {
			continue
		}
		if d, ok := dist.At(p.At); ok && d < bestD {
			best, bestD = p, d
		}
	}
	return best, bestD
}

// segment classification on a complete path.
type pathSegments struct {
	// contam are the cells the plug traversal contaminates.
	contam []geom.Point
	// excess are the cells caching excess fluid before the target device.
	excess []geom.Point
	// sensitive are the cells whose residue would contaminate the plug:
	// the traversal segment plus the source and target device cells.
	sensitive []geom.Point
}

// classify splits a complete path around the source/target devices.
// src == nil for injections (plug starts at the flow port).
func classify(chip *grid.Chip, p grid.Path, src, dst *grid.Device) pathSegments {
	// Find the index ranges of src and dst blocks on the path.
	lastSrc := 0 // plug departure index (port or last src cell)
	if src != nil {
		for i, c := range p.Cells {
			if chip.DeviceAt(c) == src {
				lastSrc = i
			}
		}
	}
	firstDst, lastDst := -1, -1
	for i, c := range p.Cells {
		if chip.DeviceAt(c) == dst {
			if firstDst < 0 {
				firstDst = i
			}
			lastDst = i
		}
	}
	var seg pathSegments
	for i := lastSrc + 1; i < firstDst; i++ {
		seg.contam = append(seg.contam, p.Cells[i])
		seg.sensitive = append(seg.sensitive, p.Cells[i])
	}
	if src != nil {
		// The plug leaving the source device deposits its residue there.
		seg.contam = append(seg.contam, src.Cells()...)
		seg.sensitive = append(seg.sensitive, src.Cells()...)
	}
	if dst != nil {
		seg.sensitive = append(seg.sensitive, dst.Cells()...)
	}
	// Squeezed excess just past the device (not the waste port itself).
	if lastDst+1 < p.Len()-1 {
		seg.contam = append(seg.contam, p.Cells[lastDst+1])
	}
	// Excess cache: last up-to-2 channel cells before the device, kept in
	// path order (a connected chain for FlushPath routing).
	for i := maxInt(lastSrc+1, firstDst-2); i >= 0 && i < firstDst; i++ {
		seg.excess = append(seg.excess, p.Cells[i])
	}
	return seg
}

// tailContam returns the cells a removal/disposal plug contaminates: the
// traversal from its pickup segment to the waste port (port excluded).
func tailContam(p grid.Path, from geom.Point) []geom.Point {
	start := -1
	for i, c := range p.Cells {
		if c == from {
			start = i
			break
		}
	}
	if start < 0 {
		start = 0
	}
	var out []geom.Point
	for i := start; i < p.Len()-1; i++ {
		out = append(out, p.Cells[i])
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
