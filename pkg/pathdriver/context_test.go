package pathdriver

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestContextAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	a := buildAssay(t)
	syn, err := Synthesize(ctx, a, SynthConfig{
		Devices: []DeviceSpec{{Kind: "mixer", Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeWash(ctx, syn.Schedule, Options{
		Budget: Budget{Total: 10 * time.Second, PerPath: time.Second, Window: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClean(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || len(res.Stats.Phases) == 0 {
		t.Fatal("no solve stats on PDWResult")
	}
	base, err := Baseline(ctx, syn.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClean(base.Schedule); err != nil {
		t.Fatal(err)
	}
	ref, err := CompressBase(syn.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Makespan() > syn.Schedule.Makespan() {
		t.Fatal("compressed base slower than input")
	}
}

func TestCanceledContextDegradesNotErrors(t *testing.T) {
	a := buildAssay(t)
	syn, err := Synthesize(context.Background(), a, SynthConfig{
		Devices: []DeviceSpec{{Kind: "mixer", Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeWash(ctx, syn.Schedule, Options{})
	if err != nil {
		t.Fatalf("canceled optimize must degrade, not error: %v", err)
	}
	if err := VerifyClean(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Canceled {
		t.Error("Stats.Canceled not set")
	}
	// Synthesis, by contrast, aborts at entry under a done context.
	if _, err := Synthesize(ctx, a, SynthConfig{}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestSentinelReExports(t *testing.T) {
	// An assay needing a mixer against a heater-only library.
	_, err := Synthesize(context.Background(), buildAssay(t), SynthConfig{
		Devices: []DeviceSpec{{Kind: "heater", Count: 1}},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := Synthesize(context.Background(), NewAssay("empty"), SynthConfig{}); !errors.Is(err, ErrInvalidAssay) {
		t.Fatalf("err = %v, want ErrInvalidAssay", err)
	}
}
