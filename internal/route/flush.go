package route

import (
	"fmt"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/solve"
)

// FlushPath routes a complete flow path [flow port - targets - waste
// port] through all target cells, which must form a connected chain in
// the given order (e.g. a contaminated sub-segment of an earlier flow
// path). All flow-port/waste-port pairs and both chain orientations are
// tried; the shortest valid simple path wins. This is the BFS wash-path
// construction used by the DAWO baseline and by excess-fluid removal
// routing; PDW's exact search (internal/washpath) optimizes the same
// structure globally.
func FlushPath(c *grid.Chip, chain []geom.Point, o Options) (grid.Path, *grid.Port, *grid.Port, error) {
	return FlushPathCheck(c, chain, o, nil)
}

// FlushPathCheck is FlushPath polling cp before each port-pair
// candidate: the enumeration is |flow ports| x |waste ports| x 2
// orientations, each a multi-leg BFS, so on port-rich chips one call
// can run long — too long a blind spot for a caller under a deadline.
// A nil cp never cancels (FlushPath's behavior). On cancellation the
// best candidate found so far is abandoned and the latched context
// error returned.
//
// A candidate is routed only if it can beat the best path so far: each
// BFS leg is at least its Manhattan length, so 1 + the Manhattan
// lengths of flow port -> chain -> waste port bounds the candidate's
// cell count from below, and a bound at or above the best length is
// skipped without routing. Only a strictly shorter path replaces the
// best, so the skip never changes the result.
func FlushPathCheck(c *grid.Chip, chain []geom.Point, o Options, cp *solve.Checkpoint) (grid.Path, *grid.Port, *grid.Port, error) {
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
	inner := 0
	for i := 1; i < len(chain); i++ {
		inner += chain[i-1].Manhattan(chain[i])
	}
	s := NewSearch(c, o)
	wps := make([]geom.Point, 0, len(chain)+2)
	var best, cand []geom.Point
	var bestFP, bestWP *grid.Port
	wastePorts := c.WastePorts()
	for _, fp := range c.FlowPorts() {
		for _, wp := range wastePorts {
			if err := cp.Err(); err != nil {
				return grid.Path{}, nil, nil, err
			}
			for _, ch := range orientations {
				bound := 1 + fp.At.Manhattan(ch[0]) + inner + ch[len(ch)-1].Manhattan(wp.At)
				if best != nil && bound >= len(best) {
					continue
				}
				wps = append(wps[:0], fp.At)
				wps = append(wps, ch...)
				wps = append(wps, wp.At)
				var err error
				// Through's path starts at fp and ends at wp, so it is
				// complete whenever it is valid.
				if cand, err = s.through(wps, cand); err != nil {
					continue
				}
				if best == nil || len(cand) < len(best) {
					best, cand = cand, best
					bestFP, bestWP = fp, wp
				}
			}
		}
	}
	if best == nil {
		return grid.Path{}, nil, nil, fmt.Errorf("%w: no complete flush path through %d targets", ErrNoPath, len(chain))
	}
	return grid.NewPath(best...), bestFP, bestWP, nil
}
