// Wash-path demo: the exact wash-path construction of Eqs. (12)-(15)
// (branch and bound over the paths the paper's path ILP admits) against
// the BFS heuristic the DAWO baseline uses, on a hand-built chip. A contaminated channel segment sits near the chip centre; the
// demo shows the port selection and path each method produces and the
// resulting path lengths (the L_wash contribution of Eq. 25).
package main

import (
	"fmt"
	"log"
	"time"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/washpath"
	"pathdriverwash/pkg/pathdriver"
)

func main() {
	chip := pathdriver.NewChip("demo", 11, 9)
	mustPort := func(id string, kind int, at geom.Point) {
		k := pathdriver.FlowPort
		if kind == 1 {
			k = pathdriver.WastePort
		}
		if _, err := chip.AddPort(id, k, at); err != nil {
			log.Fatal(err)
		}
	}
	mustPort("in1", 0, geom.Pt(1, 0))
	mustPort("in2", 0, geom.Pt(0, 7))
	mustPort("out1", 1, geom.Pt(10, 1))
	mustPort("out2", 1, geom.Pt(5, 8))
	if _, err := chip.AddDevice("mixer", "mixer", geom.Rc(5, 3, 7, 5)); err != nil {
		log.Fatal(err)
	}
	for y := 1; y < 8; y++ {
		for x := 1; x < 10; x++ {
			if chip.DeviceAt(geom.Pt(x, y)) == nil {
				if err := chip.AddChannel(geom.Pt(x, y)); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if err := chip.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("chip:")
	fmt.Println(chip.Render())

	// A contaminated segment hugging the mixer's south-west corner.
	targets := []geom.Point{geom.Pt(3, 5), geom.Pt(4, 5), geom.Pt(4, 6)}
	fmt.Printf("wash targets: %v (device must not be flushed)\n\n", targets)

	heur, err := washpath.Build(chip, washpath.Request{Targets: targets}, washpath.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BFS heuristic (DAWO style): %d cells, %s -> %s\n  %s\n\n",
		heur.Path.Len(), heur.FlowPort.ID, heur.WastePort.ID, heur.Path)

	exact, err := washpath.Build(chip, washpath.Request{Targets: targets},
		washpath.Options{Exact: true, TimeLimit: 20 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact (PDW, Eqs. 12-15): %d cells, %s -> %s, proven optimal: %v\n  %s\n\n",
		exact.Path.Len(), exact.FlowPort.ID, exact.WastePort.ID, exact.Optimal, exact.Path)

	saved := heur.Path.Len() - exact.Path.Len()
	fmt.Printf("exact saves %d cells (%.0f mm of wash path, %.1f s of flush time)\n",
		saved, chip.CellLengthOf(saved), chip.CellLengthOf(saved)/chip.FlowVelocityMMs)
}
