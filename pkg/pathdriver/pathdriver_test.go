package pathdriver

import (
	"context"
	"testing"
	"time"
)

func buildAssay(t *testing.T) *Assay {
	t.Helper()
	a := NewAssay("api")
	a.MustAddOp(&Operation{ID: "o1", Kind: Mix, Duration: 2, Output: "f1",
		Reagents: []FluidType{"r1", "r2"}})
	a.MustAddOp(&Operation{ID: "o2", Kind: Mix, Duration: 2, Output: "f2",
		Reagents: []FluidType{"r3"}})
	a.MustAddEdge("o1", "o2")
	return a
}

func TestPublicAPIEndToEnd(t *testing.T) {
	a := buildAssay(t)
	syn, err := Synthesize(context.Background(), a, SynthConfig{
		Devices: []DeviceSpec{{Kind: "mixer", Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeWash(context.Background(), syn.Schedule, Options{
		Budget: Budget{PerPath: time.Second, Window: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClean(res.Schedule); err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(context.Background(), syn.Schedule, Options{})
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
		t.Error("compressed base slower than greedy base")
	}
}

func TestBenchmarksExposed(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("benchmarks = %d want 8", len(bs))
	}
	b, err := BenchmarkByName("PCR")
	if err != nil || b.Name != "PCR" {
		t.Fatalf("BenchmarkByName: %v %v", b, err)
	}
}

func TestMotivatingExampleExposed(t *testing.T) {
	a, chip, err := MotivatingExample()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ops()) != 7 || len(chip.Devices()) != 5 {
		t.Fatal("motivating example shape wrong")
	}
	syn, err := SynthesizeOnChip(context.Background(), a, chip)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Schedule.Makespan() == 0 {
		t.Fatal("empty schedule")
	}
}

func TestCustomChipThroughAPI(t *testing.T) {
	c := NewChip("custom", 10, 8)
	if _, err := c.AddPort("in1", FlowPort, Pt(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddPort("out1", WastePort, Pt(9, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDevice("mixer1", "mixer", Rc(4, 2, 6, 4)); err != nil {
		t.Fatal(err)
	}
	for x := 1; x < 9; x++ {
		for y := 1; y < 7; y++ {
			if c.DeviceAt(Pt(x, y)) == nil {
				if err := c.AddChannel(Pt(x, y)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewAssay("one")
	a.MustAddOp(&Operation{ID: "o1", Kind: Mix, Duration: 2, Output: "f1",
		Reagents: []FluidType{"r1"}})
	syn, err := SynthesizeOnChip(context.Background(), a, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestControlLayerThroughAPI(t *testing.T) {
	a := buildAssay(t)
	syn, err := Synthesize(context.Background(), a, SynthConfig{})
	if err != nil {
		t.Fatal(err)
	}
	layer := SynthesizeControl(syn.Chip)
	if len(layer.Valves) == 0 {
		t.Fatal("no valves")
	}
	plan, err := PlanControl(layer, syn.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pins <= 0 {
		t.Fatalf("pins = %d", plan.Pins)
	}
}
