// Package corpus mints benchmark instances at scale: a seeded,
// property-validated generator that grows the three hand-tuned
// synthetics of Table II into parameter sweeps over grid sizes,
// operation counts, DAG shapes, and contamination densities — plus a
// differential oracle (oracle.go) that cross-checks PDW, DAWO, and the
// exact wash-path search on every generated instance.
//
// Two properties make the corpus usable as regression-radar input:
//
//   - Determinism: the same Params always produce the same instance,
//     byte for byte (Fingerprint), across processes and Go releases.
//     The sweep planner derives every per-instance seed from the sweep
//     seed with splitmix64, so shard i of n generates exactly the same
//     instances whether the sweep runs in one process or sixteen.
//   - Validity: an instance only counts once Validate accepts it — the
//     assay validates, synthesis succeeds, the wash-free schedule
//     passes schedule.Validate, and (at LevelWashable) a heuristic
//     wash pass proves the instance contamination-free washable.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pathdriverwash/internal/assayio"
	"pathdriverwash/internal/benchmarks"
)

// Shape selects the dependency-DAG family of a generated instance.
type Shape int

const (
	// Layered is the free-form layered DAG of the Table II synthetics:
	// ops spread over layers with random forward edges.
	Layered Shape = iota
	// Pipeline is a single serial chain o1 -> o2 -> ... -> oN, the
	// schedule shape of deep sequential protocols.
	Pipeline
	// Diamond is a chain of fork-join diamonds: an opener fans out to
	// Branch parallel ops which join again, repeatedly.
	Diamond
	// Panel is Branch independent chains sharing one device library —
	// the multiplexed-panel shape of Kinase act-2.
	Panel
)

// Shapes lists every generator shape in sweep order.
func Shapes() []Shape { return []Shape{Layered, Pipeline, Diamond, Panel} }

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Layered:
		return "layered"
	case Pipeline:
		return "pipeline"
	case Diamond:
		return "diamond"
	case Panel:
		return "panel"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Params fully determines one generated instance.
type Params struct {
	// Name labels the instance (sweeps derive stable names; empty
	// derives one from the other fields).
	Name string
	// Seed drives every random choice. Two calls with equal Params are
	// byte-identical.
	Seed uint64
	// Ops is the operation count (>= 1).
	Ops int
	// Shape selects the DAG family.
	Shape Shape
	// Branch is the fan-out of Diamond forks / the chain count of Panel
	// (default 3; ignored by Pipeline and Layered).
	Branch int
	// Density in [0,1] is the contamination density: the probability
	// that an operation mints a fresh fluid type instead of reusing an
	// already-flowing one. At 1 every product is hostile to every other
	// (maximum wash demand); at 0 the assay reuses few fluid types and
	// the Type-2 same-fluid rule excuses most crossings.
	Density float64
	// ReagentRate is the expected number of extra reagent injections
	// per operation beyond the one every source op must consume
	// (default 0.5, capped at 8 — beyond that the injection load
	// dwarfs the assay itself and solve times explode).
	ReagentRate float64
	// Devices is the total device budget, which also sets the chip
	// size: synthesis places devices on a street grid of side
	// ~3*ceil(sqrt(Devices))+3 cells, so 4 devices give a 9-cell side
	// and 400 devices a 63-cell side. 0 derives max(3, Ops/2) capped
	// at 40.
	Devices int
}

// withDefaults fills the derived fields.
func (p Params) withDefaults() Params {
	if p.Branch <= 0 {
		p.Branch = 3
	}
	if p.ReagentRate < 0 {
		p.ReagentRate = 0
	}
	if p.ReagentRate > 8 {
		p.ReagentRate = 8
	}
	if p.Density < 0 {
		p.Density = 0
	}
	if p.Density > 1 {
		p.Density = 1
	}
	if p.Devices <= 0 {
		p.Devices = p.Ops / 2
		if p.Devices < 3 {
			p.Devices = 3
		}
		if p.Devices > 40 {
			p.Devices = 40
		}
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("c-%s-o%d-d%02.0f-s%x", p.Shape, p.Ops, p.Density*100, p.Seed)
	}
	return p
}

// splitmix64 is the seed-derivation PRNG: unlike the xorshift used for
// per-instance choices it never maps a seed to itself and handles the
// zero state, so corpus seed 0 and instance index 0 still diverge.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is the instance-local deterministic PRNG (xorshift64, seeded via
// splitmix64 so a zero seed is safe).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: splitmix64(seed) | 1} }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a float64 in [0,1).
func (r *rng) float() float64 { return float64(r.next()%1_000_000) / 1_000_000 }

// Fingerprint canonically serializes the instance (assayio document
// JSON) and hashes it; equal fingerprints mean byte-identical
// instances. Tests use it to pin generator determinism.
func Fingerprint(b *benchmarks.Benchmark) (string, error) {
	var buf bytes.Buffer
	if err := assayio.Encode(&buf, b.Assay, b.Config); err != nil {
		return "", fmt.Errorf("corpus: fingerprint %s: %w", b.Name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}
