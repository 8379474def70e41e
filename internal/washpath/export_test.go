package washpath

import (
	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// SetOnExactBuild installs the hook that sees every exact build; nil
// removes it.
func SetOnExactBuild(f func(*grid.Chip, []geom.Point)) { onExactBuild = f }

// WriteModels is writeModels for the external capture test.
var WriteModels = writeModels
