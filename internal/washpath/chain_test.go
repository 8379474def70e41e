package washpath

import (
	"math/rand/v2"
	"slices"
	"testing"

	"pathdriverwash/internal/geom"
)

// decodeChainSet builds a target list of 2..31 cells in a box of 4..11
// cells a side from bytes, in one of three modes: a self-avoiding walk
// (chainable; it stops early when stuck), a set grown from one cell
// through random free neighbours (wrapping at the box edge), or
// scattered cells, which are usually disconnected. Grown sets now and
// then repeat a cell.
func decodeChainSet(data []byte) []geom.Point {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	n, w, mode := 2+next()%30, 4+next()%8, next()%4
	head := geom.Pt(next()%w, next()%w) // the walk's last step
	cells := []geom.Point{head}
	in := map[geom.Point]bool{head: true}
	free := func(q geom.Point) bool { return q.X >= 0 && q.Y >= 0 && q.X < w && q.Y < w && !in[q] }
	for len(cells) < n {
		switch b := next(); {
		case mode == 0:
			cells = append(cells, geom.Pt(b%w, next()%w))
		case b%8 == 0 && mode > 1:
			cells = append(cells, cells[next()%len(cells)])
		case mode == 1:
			d, k := next(), 0
			for ; k < 4 && !free(head.Add(geom.Dirs[(d+k)%4])); k++ {
			}
			if k == 4 {
				return cells
			}
			head = head.Add(geom.Dirs[(d+k)%4])
			in[head] = true
			cells = append(cells, head)
		default:
			base, d := cells[next()%len(cells)], next()
			var q geom.Point
			for k := range 4 {
				q = base.Add(geom.Dirs[(d+k)%4])
				if q = geom.Pt((q.X+w)%w, (q.Y+w)%w); !in[q] {
					break
				}
			}
			in[q] = true
			cells = append(cells, q)
		}
	}
	return cells
}

// checkChainOrder compares ChainOrder with the map-based reference on
// cells. Where the reference finishes inside its node budget, both
// must return the same chain or the same error. Where it runs out,
// ChainOrder, whose cuts spend fewer nodes, must return the same error
// or a valid chain. It reports whether the reference ran out.
func checkChainOrder(t *testing.T, cells []geom.Point) bool {
	t.Helper()
	got, err := ChainOrder(cells)
	want, nodes, wantErr := refChainOrder(cells)
	if nodes < chainBudget {
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ChainOrder(%v): error %v, reference %v", cells, err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ChainOrder(%v) = %v, reference %v", cells, got, want)
		}
		return false
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("ChainOrder(%v): error %v, reference %v", cells, err, wantErr)
		}
		return true
	}
	distinct := map[geom.Point]bool{}
	for _, p := range cells {
		distinct[p] = true
	}
	seen := map[geom.Point]bool{}
	for k, p := range got {
		if !distinct[p] || seen[p] {
			t.Fatalf("ChainOrder(%v) = %v: cell %v foreign or repeated", cells, got, p)
		}
		seen[p] = true
		if k > 0 && !got[k-1].Adjacent(p) {
			t.Fatalf("ChainOrder(%v) = %v: %v and %v not adjacent", cells, got, got[k-1], p)
		}
	}
	if len(seen) != len(distinct) {
		t.Fatalf("ChainOrder(%v) = %v: %d of %d targets", cells, got, len(seen), len(distinct))
	}
	return true
}

// TestChainOrderMatchesReference checks the dense ChainOrder against
// the map-based one on random connected and disconnected sets.
func TestChainOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 7))
	sets := 4000
	if testing.Short() {
		sets = 1000
	}
	data := make([]byte, 80)
	outOfBudget := 0
	for range sets {
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		if checkChainOrder(t, decodeChainSet(data)) {
			outOfBudget++
		}
	}
	t.Logf("%d of %d sets ran the reference out of budget", outOfBudget, sets)
}

// FuzzChainOrderMatchesReference is TestChainOrderMatchesReference
// driven by the fuzzer; the committed seeds under testdata/fuzz run in
// every go test.
func FuzzChainOrderMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkChainOrder(t, decodeChainSet(data))
	})
}

// pipelineO34Targets is the hardest target set ChainOrder meets on the
// pinned heuristic-scale sweep (corpus seed 3, 24-40 ops): a 39-cell
// wash group of c0001-pipeline-o34's heuristic PDW that holds no
// chain. The map-based search expands 165,633 nodes to prove it.
var pipelineO34Targets = []geom.Point{
	geom.Pt(14, 2), geom.Pt(15, 2), geom.Pt(13, 3), geom.Pt(14, 3), geom.Pt(15, 3),
	geom.Pt(9, 4), geom.Pt(13, 4), geom.Pt(14, 4), geom.Pt(5, 5), geom.Pt(6, 5),
	geom.Pt(7, 5), geom.Pt(8, 5), geom.Pt(9, 5), geom.Pt(13, 5), geom.Pt(5, 6),
	geom.Pt(6, 6), geom.Pt(8, 6), geom.Pt(9, 6), geom.Pt(13, 6), geom.Pt(4, 7),
	geom.Pt(5, 7), geom.Pt(6, 7), geom.Pt(7, 7), geom.Pt(8, 7), geom.Pt(9, 7),
	geom.Pt(10, 7), geom.Pt(11, 7), geom.Pt(12, 7), geom.Pt(13, 7), geom.Pt(2, 8),
	geom.Pt(3, 8), geom.Pt(4, 8), geom.Pt(11, 8), geom.Pt(12, 8), geom.Pt(13, 8),
	geom.Pt(2, 9), geom.Pt(3, 9), geom.Pt(11, 9), geom.Pt(12, 9),
}

// BenchmarkChainOrder runs ChainOrder and the map-based reference it
// replaced on pipelineO34Targets; both fail with the same error.
func BenchmarkChainOrder(b *testing.B) {
	_, nodes, want := refChainOrder(pipelineO34Targets)
	if want == nil || nodes < 100000 {
		b.Fatalf("reference: %d nodes, error %v; want a failure after over 100,000 nodes", nodes, want)
	}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := ChainOrder(pipelineO34Targets); err == nil || err.Error() != want.Error() {
				b.Fatalf("ChainOrder: error %v, reference %v", err, want)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			refChainOrder(pipelineO34Targets)
		}
	})
}
