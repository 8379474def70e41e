package washpath

import (
	"context"
	"fmt"
	"sort"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// BuildCover constructs one or more wash paths that together cover all
// targets; see BuildCoverContext.
func BuildCover(chip *grid.Chip, targets []geom.Point, opts Options) ([]Plan, [][]geom.Point, error) {
	return BuildCoverContext(context.Background(), chip, targets, opts)
}

// BuildCoverContext constructs one or more wash paths that together
// cover all targets. It first tries a single path (ILP or heuristic per
// opts); when the target set cannot be served by one simple path — e.g.
// a channel chain with a device block hanging off it — the set is split
// into device blocks and channel components, each washed separately,
// and a part no path covers into chains. A chain no path covers is
// split in two along its order, and each half in turn, down to single
// cells. Returns the plans and the target subset each plan covers. A
// canceled ctx degrades exact-mode paths to the BFS heuristic (see
// BuildContext).
func BuildCoverContext(ctx context.Context, chip *grid.Chip, targets []geom.Point, opts Options) ([]Plan, [][]geom.Point, error) {
	plan, err := BuildContext(ctx, chip, Request{Targets: targets}, opts)
	if err == nil {
		return []Plan{plan}, [][]geom.Point{targets}, nil
	}
	var cv cover
	parts := splitTargets(chip, targets)
	if len(parts) == 1 && len(parts[0]) == len(targets) {
		// No device/channel split possible; decompose the component
		// into simple chains (a T- or plus-shaped region cannot be
		// covered by one simple path under Eq. 14).
		parts = chainDecompose(targets)
		if len(parts) <= 1 {
			if err := cv.halves(ctx, chip, parts[0], opts, err); err != nil {
				return nil, nil, err
			}
			return cv.plans, cv.covered, nil
		}
	}
	for _, part := range parts {
		p, perr := BuildContext(ctx, chip, Request{Targets: part}, opts)
		if perr == nil {
			cv.add(p, part)
			continue
		}
		// Last resort: break the part into chains.
		chains := chainDecompose(part)
		if len(chains) <= 1 {
			if err := cv.halves(ctx, chip, chains[0], opts, perr); err != nil {
				return nil, nil, err
			}
			continue
		}
		for _, ch := range chains {
			if err := cv.chain(ctx, chip, ch, opts); err != nil {
				return nil, nil, err
			}
		}
	}
	return cv.plans, cv.covered, nil
}

// cover collects BuildCoverContext's plans and the targets of each.
type cover struct {
	plans   []Plan
	covered [][]geom.Point
}

func (cv *cover) add(p Plan, targets []geom.Point) {
	cv.plans = append(cv.plans, p)
	cv.covered = append(cv.covered, targets)
}

// chain covers ch, a chain in walk order, with one path or, failing
// that, by halves.
func (cv *cover) chain(ctx context.Context, chip *grid.Chip, ch []geom.Point, opts Options) error {
	p, err := BuildContext(ctx, chip, Request{Targets: ch}, opts)
	if err != nil {
		return cv.halves(ctx, chip, ch, opts, err)
	}
	cv.add(p, ch)
	return nil
}

// halves covers ch, which no single path covers (err says why), as its
// first and second half along its order.
func (cv *cover) halves(ctx context.Context, chip *grid.Chip, ch []geom.Point, opts Options, err error) error {
	if len(ch) == 1 {
		return fmt.Errorf("washpath: cannot cover chain %v: %w", ch, err)
	}
	mid := len(ch) / 2
	if err := cv.chain(ctx, chip, ch[:mid], opts); err != nil {
		return err
	}
	return cv.chain(ctx, chip, ch[mid:], opts)
}

// chainDecompose splits a cell set into a small number of chains, each
// traversable by a simple path: repeatedly walk greedily from a
// lowest-degree remaining cell, emitting one chain per walk.
func chainDecompose(cells []geom.Point) [][]geom.Point {
	remaining := map[geom.Point]bool{}
	for _, c := range cells {
		remaining[c] = true
	}
	deg := func(p geom.Point) int {
		n := 0
		for _, q := range p.Neighbors() {
			if remaining[q] {
				n++
			}
		}
		return n
	}
	var chains [][]geom.Point
	for len(remaining) > 0 {
		var start geom.Point
		best := 5
		ordered := make([]geom.Point, 0, len(remaining))
		for p := range remaining {
			ordered = append(ordered, p)
		}
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].Y != ordered[j].Y {
				return ordered[i].Y < ordered[j].Y
			}
			return ordered[i].X < ordered[j].X
		})
		for _, p := range ordered {
			if d := deg(p); d < best {
				start, best = p, d
			}
		}
		chain := []geom.Point{start}
		delete(remaining, start)
		cur := start
		for {
			var next geom.Point
			found := false
			nb := 5
			for _, q := range cur.Neighbors() {
				if !remaining[q] {
					continue
				}
				if d := deg(q); !found || d < nb {
					next, nb, found = q, d, true
				}
			}
			if !found {
				break
			}
			chain = append(chain, next)
			delete(remaining, next)
			cur = next
		}
		chains = append(chains, chain)
	}
	return chains
}

// splitTargets partitions targets into per-device blocks and connected
// channel components.
func splitTargets(chip *grid.Chip, targets []geom.Point) [][]geom.Point {
	byDev := map[*grid.Device][]geom.Point{}
	var devs []*grid.Device
	var channel []geom.Point
	for _, t := range targets {
		if d := chip.DeviceAt(t); d != nil {
			if _, ok := byDev[d]; !ok {
				devs = append(devs, d)
			}
			byDev[d] = append(byDev[d], t)
		} else {
			channel = append(channel, t)
		}
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	var parts [][]geom.Point
	for _, d := range devs {
		parts = append(parts, byDev[d])
	}
	parts = append(parts, connectedParts(channel)...)
	return parts
}

// connectedParts splits cells into 4-connected components.
func connectedParts(cells []geom.Point) [][]geom.Point {
	set := map[geom.Point]bool{}
	for _, c := range cells {
		set[c] = true
	}
	seen := map[geom.Point]bool{}
	var parts [][]geom.Point
	ordered := append([]geom.Point(nil), cells...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Y != ordered[j].Y {
			return ordered[i].Y < ordered[j].Y
		}
		return ordered[i].X < ordered[j].X
	})
	for _, c := range ordered {
		if seen[c] {
			continue
		}
		var comp []geom.Point
		stack := []geom.Point{c}
		seen[c] = true
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, p)
			for _, q := range p.Neighbors() {
				if set[q] && !seen[q] {
					seen[q] = true
					stack = append(stack, q)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool {
			if comp[i].Y != comp[j].Y {
				return comp[i].Y < comp[j].Y
			}
			return comp[i].X < comp[j].X
		})
		parts = append(parts, comp)
	}
	return parts
}
