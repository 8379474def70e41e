package replan

import (
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/route"
	"pathdriverwash/internal/washpath"
)

// chainOrderForTest re-exports the washpath chain ordering for tests.
func chainOrderForTest(cells []geom.Point) ([]geom.Point, error) {
	return washpath.ChainOrder(cells)
}

// flushForTest routes a complete flush path avoiding non-target devices.
func flushForTest(chip *grid.Chip, chain []geom.Point) (grid.Path, *grid.Port, *grid.Port, error) {
	return route.FlushPath(chip, chain, route.Options{AvoidPorts: true, AvoidDevices: true, Exempt: chain})
}
