package corpus

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/solve"
	"pathdriverwash/internal/synth"
)

// genKinds is the operation-kind ladder: mixing dominates real
// protocols, with heating, dilution, and detection sprinkled in.
var genKinds = []assay.OpKind{
	assay.Mix, assay.Mix, assay.Heat, assay.Dilute, assay.Detect, assay.Mix,
}

// GenerateContext builds one instance from its parameters. The result
// is structurally valid (assay.Validate passes) but not yet proven
// synthesizable or washable — Validate runs those stages, and
// GenerateValidated combines both. The operation, edge, and reagent
// loops are checkpointed (Layered edge wiring is quadratic in Ops),
// aborting with solve.ErrBudgetExceeded once ctx is done.
// Cancellation never changes what is generated — instances remain pure
// functions of Params — it only decides whether generation finishes.
func GenerateContext(ctx context.Context, p Params) (*benchmarks.Benchmark, error) {
	p = p.withDefaults()
	if p.Ops < 1 {
		return nil, fmt.Errorf("corpus: %s: ops %d < 1", p.Name, p.Ops)
	}
	if p.Ops > 100_000 {
		return nil, fmt.Errorf("corpus: %s: ops %d is absurd (max 100000)", p.Name, p.Ops)
	}
	cp := solve.NewCheckpoint(ctx)
	r := newRNG(p.Seed)
	a := assay.New(p.Name)

	// Operations: kinds off the ladder, durations 2-5 s, and outputs
	// drawn from the fluid pool under the contamination-density rule —
	// a fresh type with probability Density, reuse otherwise.
	var pool []assay.FluidType
	fresh := 0
	nextFluid := func() assay.FluidType {
		if len(pool) == 0 || r.float() < p.Density {
			f := assay.FluidType(fmt.Sprintf("f%d", fresh))
			fresh++
			pool = append(pool, f)
			return f
		}
		return pool[r.intn(len(pool))]
	}
	for i := 0; i < p.Ops; i++ {
		if err := cp.Check(); err != nil {
			return nil, genCanceled(p, err)
		}
		if err := a.AddOp(&assay.Operation{
			ID:       fmt.Sprintf("o%d", i+1),
			Kind:     genKinds[r.intn(len(genKinds))],
			Duration: 2 + r.intn(4),
			Output:   nextFluid(),
		}); err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", p.Name, err)
		}
	}
	if err := addEdges(a, p, r, &cp); err != nil {
		if cp.Canceled() {
			return nil, genCanceled(p, err)
		}
		return nil, fmt.Errorf("corpus: %s: %w", p.Name, err)
	}

	// Detection does not transform its sample: a single-input detect op
	// forwards its predecessor's fluid, seeding Type-2 skip
	// opportunities exactly like the Table II synthetics.
	for _, o := range a.Ops() {
		if o.Kind != assay.Detect {
			continue
		}
		if preds := a.Preds(o.ID); len(preds) == 1 {
			o.Output = a.Op(preds[0]).Output
		}
	}

	// Reagents: every source op must consume at least one injection
	// (assay.Validate's rule), plus ReagentRate extras spread over the
	// whole graph. Reagent types follow the same density rule so low
	// densities share buffers across injections.
	for _, id := range a.Sources() {
		op := a.Op(id)
		op.Reagents = append(op.Reagents, nextFluid())
	}
	extra := int(math.Round(p.ReagentRate * float64(p.Ops)))
	ops := a.Ops()
	for i := 0; i < extra; i++ {
		if err := cp.Check(); err != nil {
			return nil, genCanceled(p, err)
		}
		op := ops[r.intn(len(ops))]
		op.Reagents = append(op.Reagents, nextFluid())
	}

	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("corpus: generated %s invalid: %w", p.Name, err)
	}
	specs := deviceLibrary(a, p.Devices)
	return &benchmarks.Benchmark{
		Name:   p.Name,
		Assay:  a,
		Config: synth.Config{Devices: specs, FlowPorts: portCount(specs), WastePorts: portCount(specs)},
	}, nil
}

// genCanceled wraps a checkpoint error at the generation boundary.
func genCanceled(p Params, err error) error {
	return fmt.Errorf("corpus: %s: generation canceled: %w: %w", p.Name, solve.ErrBudgetExceeded, err)
}

// portCount sizes the boundary port count like synth's default
// (one per three devices) but capped at the number of street ends the
// chip will actually have — synth's own default overflows into
// overlapping ports on libraries beyond ~36 devices.
func portCount(specs []synth.DeviceSpec) int {
	total := 0
	for _, s := range specs {
		total += s.Count
	}
	cols := int(math.Ceil(math.Sqrt(float64(total))))
	rows := (total + cols - 1) / cols
	n := (total + 2) / 3
	if cap := cols + rows; n > cap {
		n = cap
	}
	if n < 2 {
		n = 2
	}
	return n
}

// addEdges wires the dependency DAG for the requested shape. The loops
// are checkpointed via cp (Layered's predecessor scan is quadratic in
// the op count); on cancellation the returned error is the bare
// checkpoint error, wrapped by the caller.
func addEdges(a *assay.Assay, p Params, r *rng, cp *solve.Checkpoint) error {
	id := func(i int) string { return fmt.Sprintf("o%d", i+1) }
	n := p.Ops
	switch p.Shape {
	case Pipeline:
		for i := 1; i < n; i++ {
			if err := cp.Check(); err != nil {
				return err
			}
			if err := a.AddEdge(id(i-1), id(i)); err != nil {
				return err
			}
		}
	case Panel:
		// Branch independent chains, ops dealt round-robin.
		chains := p.Branch
		if chains > n {
			chains = n
		}
		for i := chains; i < n; i++ {
			if err := cp.Check(); err != nil {
				return err
			}
			if err := a.AddEdge(id(i-chains), id(i)); err != nil {
				return err
			}
		}
	case Diamond:
		last, i := 0, 1
		for i < n {
			if err := cp.Check(); err != nil {
				return err
			}
			if remaining := n - i; remaining >= p.Branch+1 && p.Branch >= 2 {
				join := i + p.Branch
				for k := 0; k < p.Branch; k++ {
					if err := a.AddEdge(id(last), id(i+k)); err != nil {
						return err
					}
					if err := a.AddEdge(id(i+k), id(join)); err != nil {
						return err
					}
				}
				last, i = join, join+1
			} else {
				if err := a.AddEdge(id(last), id(i)); err != nil {
					return err
				}
				last = i
				i++
			}
		}
	case Layered:
		layers := int(math.Round(math.Sqrt(float64(n))))
		if layers < 2 {
			layers = 2
		}
		layerOf := make([]int, n)
		for i := 0; i < n; i++ {
			layerOf[i] = i * layers / n
		}
		// Every non-first-layer op depends on one earlier-layer op,
		// preferring ops without successors to keep the sink count low.
		hasSucc := make([]bool, n)
		for i := 0; i < n; i++ {
			if err := cp.Check(); err != nil {
				return err
			}
			if layerOf[i] == 0 {
				continue
			}
			var fresh, cands []int
			for j := 0; j < n; j++ {
				if layerOf[j] < layerOf[i] {
					cands = append(cands, j)
					if !hasSucc[j] {
						fresh = append(fresh, j)
					}
				}
			}
			pool := fresh
			if len(pool) == 0 {
				pool = cands
			}
			pre := pool[r.intn(len(pool))]
			if err := a.AddEdge(id(pre), id(i)); err != nil {
				return err
			}
			hasSucc[pre] = true
		}
		// Extra cross edges thicken the DAG (~one per three ops).
		for attempt := 0; attempt < n/3; attempt++ {
			if err := cp.Check(); err != nil {
				return err
			}
			from, to := r.intn(n), r.intn(n)
			if layerOf[from] >= layerOf[to] {
				continue
			}
			// Duplicates are rejected by AddEdge; just skip them.
			_ = a.AddEdge(id(from), id(to))
		}
	default:
		return fmt.Errorf("unknown shape %v", p.Shape)
	}
	return nil
}

// deviceLibrary sizes the device library: at least one device per kind
// the assay needs, with the remaining budget split proportionally to
// kind usage (never exceeding the usage itself — an op count caps how
// many devices of its kind can ever be busy at once).
func deviceLibrary(a *assay.Assay, budget int) []synth.DeviceSpec {
	usage := map[grid.DeviceKind]int{}
	for _, o := range a.Ops() {
		usage[assay.DeviceKindFor(o.Kind)]++
	}
	kinds := make([]grid.DeviceKind, 0, len(usage))
	total := 0
	for k, u := range usage {
		kinds = append(kinds, k)
		total += u
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	if budget < len(kinds) {
		budget = len(kinds)
	}
	specs := make([]synth.DeviceSpec, 0, len(kinds))
	assigned := 0
	for _, k := range kinds {
		count := budget * usage[k] / total
		if count < 1 {
			count = 1
		}
		if count > usage[k] {
			count = usage[k]
		}
		specs = append(specs, synth.DeviceSpec{Kind: k, Count: count})
		assigned += count
	}
	// Spend any rounding leftover on the busiest kinds, capped by usage.
	for i := range specs {
		if assigned >= budget {
			break
		}
		if room := usage[specs[i].Kind] - specs[i].Count; room > 0 {
			add := budget - assigned
			if add > room {
				add = room
			}
			specs[i].Count += add
			assigned += add
		}
	}
	return specs
}
