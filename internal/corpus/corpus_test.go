package corpus

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pathdriverwash/internal/benchmarks"
)

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Seed: 99, Ops: 20, Shape: Diamond, Density: 0.6}
	a, err := GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("same params, different fingerprints: %s vs %s", fa, fb)
	}

	c, err := GenerateContext(context.Background(), Params{Seed: 100, Ops: 20, Shape: Diamond, Density: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := Fingerprint(c)
	if err != nil {
		t.Fatal(err)
	}
	if fc == fa {
		t.Errorf("different seeds produced identical instances (%s)", fa)
	}
}

func TestGenerateAllShapes(t *testing.T) {
	ctx := context.Background()
	for _, shape := range Shapes() {
		for _, ops := range []int{1, 6, 25} {
			p := Params{Seed: 3, Ops: ops, Shape: shape, Density: 0.5}
			b, err := GenerateContext(context.Background(), p)
			if err != nil {
				t.Fatalf("%v/%d: %v", shape, ops, err)
			}
			if got, _, _ := b.Assay.Stats(); got != ops {
				t.Errorf("%v/%d: generated %d ops", shape, ops, got)
			}
			if err := Validate(ctx, b, LevelStructural); err != nil {
				t.Errorf("%v/%d: %v", shape, ops, err)
			}
		}
	}
}

func TestGenerateRejectsBadOps(t *testing.T) {
	if _, err := GenerateContext(context.Background(), Params{Seed: 1, Ops: 0, Shape: Pipeline}); err == nil {
		t.Error("Ops=0 accepted")
	}
	if _, err := GenerateContext(context.Background(), Params{Seed: 1, Ops: 200_000, Shape: Pipeline}); err == nil {
		t.Error("Ops=200000 accepted")
	}
}

func TestPlanDeterministicAndBounded(t *testing.T) {
	cfg := SweepConfig{Seed: 7, N: 30}
	p1, p2 := Plan(cfg), Plan(cfg)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("two plans of the same config differ")
	}
	if len(p1) != 30 {
		t.Fatalf("plan has %d slots, want 30", len(p1))
	}
	names := map[string]bool{}
	shapes := map[Shape]bool{}
	for _, p := range p1 {
		if p.Ops < 6 || p.Ops > 24 {
			t.Errorf("%s: ops %d outside default [6,24]", p.Name, p.Ops)
		}
		if names[p.Name] {
			t.Errorf("duplicate instance name %s", p.Name)
		}
		names[p.Name] = true
		shapes[p.Shape] = true
	}
	if len(shapes) != len(Shapes()) {
		t.Errorf("plan used %d shapes, want all %d", len(shapes), len(Shapes()))
	}
}

func TestGenerateSweepDeterministic(t *testing.T) {
	ctx := context.Background()
	cfg := SweepConfig{Seed: 11, N: 8}
	s1, err := GenerateSweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := GenerateSweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 8 || len(s2) != 8 {
		t.Fatalf("sweep sizes %d/%d, want 8", len(s1), len(s2))
	}
	for i := range s1 {
		f1, err := Fingerprint(s1[i])
		if err != nil {
			t.Fatal(err)
		}
		f2, err := Fingerprint(s2[i])
		if err != nil {
			t.Fatal(err)
		}
		if f1 != f2 {
			t.Errorf("slot %d: fingerprints differ: %s vs %s", i, f1, f2)
		}
	}
}

// TestSweepResampling pins the deterministic-resampling contract: a
// slot whose first draw is rejected holds the slot's next deterministic
// draw instead, and no other slot changes, so the emitted corpus is
// still a pure function of the config. The washability gate rejects
// too few draws to pin one as a fixture, so the test rejects slot 9's
// first draw itself and sends every other draw through the real gate.
func TestSweepResampling(t *testing.T) {
	ctx := context.Background()
	cfg := SweepConfig{Seed: 1, N: 12}
	firstDraw := planSlot(cfg.withDefaults(), 9, 0)
	offered := 0
	draw := func(ctx context.Context, p Params, level Level) (*benchmarks.Benchmark, error) {
		if p.Seed == firstDraw.Seed {
			offered++
			return nil, fmt.Errorf("corpus: %s: rejected", p.Name)
		}
		return GenerateValidated(ctx, p, level)
	}
	benches, err := generateSweep(ctx, cfg, draw)
	if err != nil {
		t.Fatal(err)
	}
	if offered != 1 {
		t.Fatalf("slot 9's first draw was offered %d times, want 1", offered)
	}
	plain, err := GenerateSweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != cfg.N || len(plain) != cfg.N {
		t.Fatalf("sweep sizes %d/%d, want %d", len(benches), len(plain), cfg.N)
	}
	fingerprint := func(b *benchmarks.Benchmark) string {
		t.Helper()
		f, err := Fingerprint(b)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for i := range benches {
		if i == 9 {
			continue
		}
		if got, want := fingerprint(benches[i]), fingerprint(plain[i]); got != want {
			t.Errorf("slot %d changed when slot 9 was resampled: %s vs %s", i, got, want)
		}
	}
	got := fingerprint(benches[9])
	if got == fingerprint(mustGen(t, firstDraw)) {
		t.Fatal("slot 9 holds its rejected first draw")
	}
	if want := fingerprint(mustGen(t, planSlot(cfg.withDefaults(), 9, 1))); got != want {
		t.Errorf("resampled slot 9 is not attempt 1's draw: %s vs %s", got, want)
	}
}

func TestSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateSweep(ctx, SweepConfig{Seed: 5, N: 4}); err == nil {
		t.Error("canceled sweep succeeded")
	}
}

func TestValidateWashable(t *testing.T) {
	b := mustGen(t, Params{Seed: 21, Ops: 10, Shape: Layered, Density: 0.8})
	if err := Validate(context.Background(), b, LevelWashable); err != nil {
		t.Fatal(err)
	}
}

// TestCorpus200Deterministic is the determinism half of the corpus
// acceptance bar: a seeded 200-instance corpus is byte-identical
// across generations. Structural level keeps it fast — determinism
// does not depend on the validation depth, only on the generator.
func TestCorpus200Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("200-instance corpus in -short")
	}
	ctx := context.Background()
	cfg := SweepConfig{Seed: 2026, N: 200, Level: LevelStructural}
	s1, err := GenerateSweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := GenerateSweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		f1, err := Fingerprint(s1[i])
		if err != nil {
			t.Fatal(err)
		}
		f2, err := Fingerprint(s2[i])
		if err != nil {
			t.Fatal(err)
		}
		if f1 != f2 {
			t.Fatalf("slot %d: corpus not byte-identical: %s vs %s", i, f1, f2)
		}
	}
}

func mustGen(t *testing.T, p Params) *benchmarks.Benchmark {
	t.Helper()
	b, err := GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
