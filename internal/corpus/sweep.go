package corpus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/solve"
)

// SweepConfig describes a seeded parameter sweep. The planner is a
// pure function of the config: Plan(cfg)[i] depends only on cfg and i,
// so shards of the same sweep agree on every instance no matter how
// the index range is split across processes.
type SweepConfig struct {
	// Seed is the sweep master seed; instance i uses
	// splitmix64(Seed ^ i) so per-instance streams never overlap.
	Seed uint64
	// N is the instance count.
	N int
	// MinOps / MaxOps bound the operation counts; instances spread
	// log-uniformly between them (defaults 6 and 24 — oracle-friendly;
	// raise MaxOps toward 10^3 for scaling sweeps).
	MinOps, MaxOps int
	// Shapes cycles through the DAG families (default Shapes()).
	Shapes []Shape
	// Densities cycles through contamination densities (default
	// 0.25, 0.6, 1.0).
	Densities []float64
	// ReagentRate forwards to Params (default 0.5).
	ReagentRate float64
	// Devices forwards to Params (0 derives per instance).
	Devices int
	// Level is the validation gate every instance must pass
	// (default LevelWashable).
	Level Level
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.MinOps <= 0 {
		c.MinOps = 6
	}
	if c.MaxOps < c.MinOps {
		c.MaxOps = 24
		if c.MaxOps < c.MinOps {
			c.MaxOps = c.MinOps
		}
	}
	if len(c.Shapes) == 0 {
		c.Shapes = Shapes()
	}
	if len(c.Densities) == 0 {
		c.Densities = []float64{0.25, 0.6, 1.0}
	}
	if c.ReagentRate == 0 {
		c.ReagentRate = 0.5
	}
	return c
}

// Plan enumerates the sweep's instance parameters without generating
// anything. Shapes and densities cycle so every combination appears;
// operation counts spread log-uniformly over [MinOps, MaxOps] driven
// by the per-instance seed. Plan lists each slot's first draw;
// GenerateSweep resamples a slot deterministically when that draw
// fails validation, so the emitted corpus can diverge from the plan on
// slots whose first draw was rejected.
func Plan(cfg SweepConfig) []Params {
	cfg = cfg.withDefaults()
	out := make([]Params, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		out = append(out, planSlot(cfg, i, 0))
	}
	return out
}

// planSlot derives the parameters of one (slot, attempt) draw. The
// per-draw seed mixes the slot index and the attempt counter so
// resampling a rejected draw explores a fresh deterministic stream,
// and every shard of the same sweep agrees on each slot's sequence of
// draws no matter how the slots are split across processes.
func planSlot(cfg SweepConfig, slot, attempt int) Params {
	seed := splitmix64(cfg.Seed ^ uint64(slot) ^ uint64(attempt)<<32)
	r := newRNG(seed)
	span := math.Log(float64(cfg.MaxOps) / float64(cfg.MinOps))
	ops := int(math.Round(float64(cfg.MinOps) * math.Exp(r.float()*span)))
	if ops < cfg.MinOps {
		ops = cfg.MinOps
	}
	if ops > cfg.MaxOps {
		ops = cfg.MaxOps
	}
	shape := cfg.Shapes[slot%len(cfg.Shapes)]
	density := cfg.Densities[(slot/len(cfg.Shapes))%len(cfg.Densities)]
	return Params{
		Name:        fmt.Sprintf("c%04d-%s-o%d", slot, shape, ops),
		Seed:        seed,
		Ops:         ops,
		Shape:       shape,
		Density:     density,
		ReagentRate: cfg.ReagentRate,
		Devices:     cfg.Devices,
	}
}

// maxSlotAttempts bounds deterministic resampling per sweep slot.
// Rejections at LevelWashable are rare (none among the first draws of
// 24-slot default sweeps with seeds 1-40), so consecutive failures
// decay geometrically and 32 attempts put a slot-level failure beyond
// reach for any plausible configuration.
const maxSlotAttempts = 32

// GenerateSweep generates and validates every instance of the sweep,
// in slot order. A draw that fails validation is resampled from the
// slot's next deterministic seed: the generator's contract is that
// everything it emits counts, and a sweep is a function of its config
// alone — same config, same corpus, byte for byte.
//
// When ctx carries a deadline, each slot runs under a sub-deadline of
// remaining/(slots remaining), so one pathological slot cannot starve
// every slot after it of the sweep budget. A slot that exhausts its
// sub-deadline fails the sweep with an error naming the slot — it is
// never resampled or skipped, because either would make the emitted
// corpus depend on machine speed instead of the config alone.
func GenerateSweep(ctx context.Context, cfg SweepConfig) ([]*benchmarks.Benchmark, error) {
	return generateSweep(ctx, cfg, GenerateValidated)
}

// drawFunc generates and validates one draw; GenerateSweep uses
// GenerateValidated, and tests pass one that rejects chosen draws.
type drawFunc func(context.Context, Params, Level) (*benchmarks.Benchmark, error)

func generateSweep(ctx context.Context, cfg SweepConfig, draw drawFunc) ([]*benchmarks.Benchmark, error) {
	cfg = cfg.withDefaults()
	out := make([]*benchmarks.Benchmark, 0, cfg.N)
	deadline, hasDeadline := ctx.Deadline()
	for i := 0; i < cfg.N; i++ {
		slotCtx, stop := ctx, context.CancelFunc(func() {})
		var sub time.Duration
		if hasDeadline {
			remain := time.Until(deadline)
			if remain <= 0 {
				return nil, fmt.Errorf("corpus: sweep budget exhausted at slot %d: %w: %w",
					i, solve.ErrBudgetExceeded, context.DeadlineExceeded)
			}
			sub = remain / time.Duration(cfg.N-i)
			slotCtx, stop = context.WithTimeout(ctx, sub)
		}
		b, err := generateSlot(slotCtx, cfg, i, draw)
		// Read before stop, which cancels slotCtx. The slot is named
		// even when the sweep's own deadline has passed too: a slot
		// that runs past both (a fixpoint finishing its round after
		// the deadline) is still the slot that starved.
		expired := errors.Is(slotCtx.Err(), context.DeadlineExceeded)
		stop()
		if err != nil {
			if hasDeadline && expired {
				return nil, fmt.Errorf("corpus: sweep slot %d exceeded its %v sub-deadline: %w: %w",
					i, sub.Round(time.Millisecond), solve.ErrBudgetExceeded, err)
			}
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func generateSlot(ctx context.Context, cfg SweepConfig, slot int, draw drawFunc) (*benchmarks.Benchmark, error) {
	var lastErr error
	for attempt := 0; attempt < maxSlotAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("corpus: sweep canceled at slot %d: %w", slot, err)
		}
		b, err := draw(ctx, planSlot(cfg, slot, attempt), cfg.Level)
		if err == nil {
			return b, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("corpus: sweep slot %d: no valid instance in %d attempts: %w",
		slot, maxSlotAttempts, lastErr)
}
