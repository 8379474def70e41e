package synth

import (
	"fmt"
	"math"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

// travelSeconds converts a path to a whole-second duration (>= 1 s).
func travelSeconds(chip *grid.Chip, p grid.Path) int {
	d := int(math.Ceil(p.TravelSeconds(chip)))
	if d < 1 {
		d = 1
	}
	return d
}

// buildSchedule produces the wash-free list schedule: for every
// operation in topological order, its reagent injections, incoming
// transports p_{j,i,1}, excess removals p_{j,i,2}, then the operation
// itself; discarded sink products are disposed to waste. The loop
// polls cp between tasks (and routeComplete polls it again per route),
// so a deadline aborts the construction within one task's work.
func buildSchedule(a *assay.Assay, chip *grid.Chip, binding map[string]*grid.Device, cp *solve.Checkpoint) (*schedule.Schedule, error) {
	s := schedule.New(chip, a)
	pl := schedule.NewPlacer(s)
	order, err := a.TopoOrder()
	if err != nil {
		return nil, err
	}
	flushOpts := route.Options{AvoidPorts: true, AvoidDevices: true}

	for _, opID := range order {
		op := a.Op(opID)
		dev := binding[opID]
		readyOp := 0

		// Reagent injections.
		for ri, rg := range op.Reagents {
			path, err := routeComplete(chip, nil, dev, cp)
			if err != nil {
				return nil, err
			}
			seg := classify(chip, path, nil, dev)
			inj := &schedule.Task{
				ID: fmt.Sprintf("inj-%s-%d", opID, ri+1), Kind: schedule.Transport,
				Path: path, Fluid: rg, EdgeTo: opID,
				MinDuration: travelSeconds(chip, path),
				ContamCells: seg.contam, ExcessCells: seg.excess,
				SensitiveCells: seg.sensitive,
			}
			if _, err := pl.Place(inj, 0, inj.MinDuration); err != nil {
				return nil, err
			}
			end, err := addRemoval(pl, chip, flushOpts,
				fmt.Sprintf("rm-inj-%s-%d", opID, ri+1), "", opID, rg, seg.excess, inj.End, cp)
			if err != nil {
				return nil, err
			}
			readyOp = max(readyOp, end)
			readyOp = max(readyOp, inj.End)
		}

		// Incoming transports from predecessors.
		for _, pred := range a.Preds(opID) {
			predTask := s.OpTask(pred)
			if predTask == nil {
				return nil, fmt.Errorf("synth: predecessor %s of %s not yet scheduled", pred, opID)
			}
			src := binding[pred]
			path, err := routeComplete(chip, src, dev, cp)
			if err != nil {
				return nil, err
			}
			seg := classify(chip, path, src, dev)
			tr := &schedule.Task{
				ID: fmt.Sprintf("tr-%s-%s", pred, opID), Kind: schedule.Transport,
				Path: path, Fluid: a.Op(pred).Output, EdgeFrom: pred, EdgeTo: opID,
				MinDuration: travelSeconds(chip, path),
				ContamCells: seg.contam, ExcessCells: seg.excess,
				SensitiveCells: seg.sensitive,
			}
			if _, err := pl.Place(tr, predTask.End, tr.MinDuration); err != nil {
				return nil, err
			}
			end, err := addRemoval(pl, chip, flushOpts,
				fmt.Sprintf("rm-%s-%s", pred, opID), pred, opID, tr.Fluid, seg.excess, tr.End, cp)
			if err != nil {
				return nil, err
			}
			readyOp = max(readyOp, end)
			readyOp = max(readyOp, tr.End)
		}

		// The operation itself. Device residue is deposited by the
		// outgoing transport/disposal (when the product actually leaves
		// the device), so a wash is never ordered while fluid sits
		// inside; the device cells stay sensitive to foreign residue.
		opTask := &schedule.Task{
			ID: "op-" + opID, Kind: schedule.Operation,
			OpID: opID, Device: dev, MinDuration: op.Duration,
			Fluid: op.Output, SensitiveCells: dev.Cells(),
		}
		if _, err := pl.Place(opTask, readyOp, op.Duration); err != nil {
			return nil, err
		}
	}

	// Waste disposal of discarded sink products.
	for _, opID := range order {
		op := a.Op(opID)
		if !op.DiscardResult && len(a.Succs(opID)) > 0 {
			continue
		}
		dev := binding[opID]
		opTask := s.OpTask(opID)
		path, err := routeComplete(chip, nil, dev, cp)
		if err != nil {
			return nil, err
		}
		// The plug moves from the device to the waste port.
		lastDev := 0
		for i, c := range path.Cells {
			if chip.DeviceAt(c) == dev {
				lastDev = i
			}
		}
		disp := &schedule.Task{
			ID: "disp-" + opID, Kind: schedule.WasteDisposal,
			Path: path, Fluid: assay.Waste, EdgeFrom: opID,
			MinDuration: travelSeconds(chip, path),
			ContamCells: append(tailContam(path, path.Cells[min(lastDev+1, path.Len()-1)]),
				dev.Cells()...), // residue stays in the emptied device
		}
		if _, err := pl.Place(disp, opTask.End, disp.MinDuration); err != nil {
			return nil, err
		}
	}

	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("synth: produced invalid schedule: %w", err)
	}
	return s, nil
}

// addRemoval routes and places the excess-fluid removal p_{j,i,2}. The
// flush-path enumeration is the scheduler's single most expensive
// routing call, so it polls cp per port-pair candidate; a cancellation
// there surfaces as a budget error like any other aborted route.
func addRemoval(pl *schedule.Placer, chip *grid.Chip, opts route.Options,
	id, from, to string, fluid assay.FluidType, excess []geom.Point, ready int,
	cp *solve.Checkpoint) (int, error) {
	if len(excess) == 0 {
		return ready, nil
	}
	path, _, _, err := route.FlushPathCheck(chip, excess, opts, cp)
	if err != nil && cp.Canceled() {
		return 0, budgetErr(err)
	}
	if err != nil && len(excess) > 1 {
		// Retry with the single cell nearest the device.
		path, _, _, err = route.FlushPathCheck(chip, excess[:1], opts, cp)
		excess = excess[:1]
	}
	if err != nil {
		if cp.Canceled() {
			return 0, budgetErr(err)
		}
		return 0, fmt.Errorf("synth: removal %s: %w", id, err)
	}
	// The excess plug travels from the first excess cell the removal path
	// reaches down to the waste port, contaminating that stretch.
	first := path.Len() - 1
	for i, c := range path.Cells {
		if containsPt(excess, c) {
			first = i
			break
		}
	}
	rm := &schedule.Task{
		ID: id, Kind: schedule.Removal,
		Path: path, Fluid: fluid, EdgeFrom: from, EdgeTo: to,
		MinDuration: travelSeconds(chip, path),
		ExcessCells: excess,
		ContamCells: append([]geom.Point(nil), path.Cells[first:path.Len()-1]...),
	}
	if _, err := pl.Place(rm, ready, rm.MinDuration); err != nil {
		return 0, err
	}
	return rm.End, nil
}

func containsPt(pts []geom.Point, p geom.Point) bool {
	for _, q := range pts {
		if q == p {
			return true
		}
	}
	return false
}
