package route

import (
	"errors"
	"fmt"
	"slices"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// The map-based router the dense one replaced, kept as the reference
// of the differential tests: every function below returns what the
// package returned before the rewrite, and FlushPath routes every
// candidate with no bound pruning.

func refUsable(c *grid.Chip, p geom.Point, o Options, isEndpoint bool) bool {
	if !c.InBounds(p) || !c.Routable(p) {
		return false
	}
	if isEndpoint {
		return true
	}
	if o.Blocked != nil && o.Blocked[p] {
		return false
	}
	if o.AvoidPorts && c.PortAt(p) != nil {
		return false
	}
	if refAvoided(c, o, p) {
		return false
	}
	return true
}

// refAvoided reports whether o's device avoidance rules p out.
func refAvoided(c *grid.Chip, o Options, p geom.Point) bool {
	return o.AvoidDevices && c.DeviceAt(p) != nil && !slices.Contains(o.Exempt, p)
}

func refShortestPath(c *grid.Chip, src, dst geom.Point, o Options) (grid.Path, error) {
	if !c.InBounds(src) || !c.Routable(src) {
		return grid.Path{}, fmt.Errorf("route: source %v is not routable", src)
	}
	if !c.InBounds(dst) || !c.Routable(dst) {
		return grid.Path{}, fmt.Errorf("route: destination %v is not routable", dst)
	}
	if src == dst {
		return grid.NewPath(src), nil
	}
	prev := map[geom.Point]geom.Point{src: src}
	queue := []geom.Point{src}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, n := range p.Neighbors() {
			if _, seen := prev[n]; seen {
				continue
			}
			if !refUsable(c, n, o, n == dst) {
				continue
			}
			prev[n] = p
			if n == dst {
				return refReconstruct(prev, src, dst), nil
			}
			queue = append(queue, n)
		}
	}
	return grid.Path{}, fmt.Errorf("%w from %v to %v", ErrNoPath, src, dst)
}

func refReconstruct(prev map[geom.Point]geom.Point, src, dst geom.Point) grid.Path {
	var rev []geom.Point
	for p := dst; ; p = prev[p] {
		rev = append(rev, p)
		if p == src {
			break
		}
	}
	cells := make([]geom.Point, len(rev))
	for i, p := range rev {
		cells[len(rev)-1-i] = p
	}
	return grid.NewPath(cells...)
}

func refThrough(c *grid.Chip, waypoints []geom.Point, o Options) (grid.Path, error) {
	if len(waypoints) < 2 {
		return grid.Path{}, errors.New("route: Through needs at least two waypoints")
	}
	total := grid.NewPath(waypoints[0])
	used := map[geom.Point]bool{}
	for i := 0; i+1 < len(waypoints); i++ {
		legOpts := o
		legOpts.Blocked = refMergeBlocked(o.Blocked, used)
		for j := i + 2; j < len(waypoints); j++ {
			legOpts.Blocked[waypoints[j]] = true
		}
		delete(legOpts.Blocked, waypoints[i])
		leg, err := refShortestPath(c, waypoints[i], waypoints[i+1], legOpts)
		if err != nil {
			return grid.Path{}, fmt.Errorf("route: leg %d (%v to %v): %w", i, waypoints[i], waypoints[i+1], err)
		}
		for _, cell := range leg.Cells {
			used[cell] = true
		}
		total = total.Concat(leg)
	}
	if err := total.Validate(c); err != nil {
		return grid.Path{}, fmt.Errorf("route: Through produced invalid path: %w", err)
	}
	return total, nil
}

func refMergeBlocked(a, b map[geom.Point]bool) map[geom.Point]bool {
	m := make(map[geom.Point]bool, len(a)+len(b))
	for p := range a {
		m[p] = true
	}
	for p := range b {
		m[p] = true
	}
	return m
}

func refDistances(c *grid.Chip, src geom.Point, o Options) map[geom.Point]int {
	dist := map[geom.Point]int{src: 0}
	queue := []geom.Point{src}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, n := range p.Neighbors() {
			if _, seen := dist[n]; seen {
				continue
			}
			if !c.InBounds(n) || !c.Routable(n) {
				continue
			}
			if o.Blocked != nil && o.Blocked[n] {
				continue
			}
			dist[n] = dist[p] + 1
			if o.AvoidPorts && c.PortAt(n) != nil {
				continue
			}
			if refAvoided(c, o, n) {
				continue
			}
			queue = append(queue, n)
		}
	}
	return dist
}

func refFlushPath(c *grid.Chip, chain []geom.Point, o Options) (grid.Path, *grid.Port, *grid.Port, error) {
	if len(chain) == 0 {
		return grid.Path{}, nil, nil, fmt.Errorf("route: FlushPath with no targets")
	}
	orientations := [][]geom.Point{chain}
	if len(chain) > 1 {
		rev := make([]geom.Point, len(chain))
		for i, p := range chain {
			rev[len(chain)-1-i] = p
		}
		orientations = append(orientations, rev)
	}
	var best grid.Path
	var bestFP, bestWP *grid.Port
	for _, fp := range c.FlowPorts() {
		for _, wp := range c.WastePorts() {
			for _, ch := range orientations {
				wps := make([]geom.Point, 0, len(ch)+2)
				wps = append(wps, fp.At)
				wps = append(wps, ch...)
				wps = append(wps, wp.At)
				p, err := refThrough(c, wps, o)
				if err != nil {
					continue
				}
				if p.ValidateComplete(c) != nil {
					continue
				}
				if best.Empty() || p.Len() < best.Len() {
					best, bestFP, bestWP = p, fp, wp
				}
			}
		}
	}
	if best.Empty() {
		return grid.Path{}, nil, nil, fmt.Errorf("%w: no complete flush path through %d targets", ErrNoPath, len(chain))
	}
	return best, bestFP, bestWP, nil
}
