package scheduleio

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/pdw"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/solve"
)

func TestEncodeRoundtripsThroughJSON(t *testing.T) {
	b, err := benchmarks.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pdw.Optimize(syn.Schedule, pdw.Options{
		HeuristicWindows: true, Budget: solve.Budget{PerPath: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, res.Schedule); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Chip.Name != syn.Chip.Name || doc.Chip.Width != syn.Chip.W {
		t.Errorf("chip info = %+v", doc.Chip)
	}
	if doc.Makespan != res.Schedule.Makespan() {
		t.Errorf("makespan = %d want %d", doc.Makespan, res.Schedule.Makespan())
	}
	if len(doc.Tasks) != len(res.Schedule.Tasks()) {
		t.Errorf("tasks = %d want %d", len(doc.Tasks), len(res.Schedule.Tasks()))
	}
	// Every wash row carries its path and targets.
	washes := 0
	for _, ti := range doc.Tasks {
		if ti.Kind == "wash" {
			washes++
			if len(ti.Path) == 0 || len(ti.WashTargets) == 0 {
				t.Errorf("wash %s lost path/targets", ti.ID)
			}
		}
		if ti.End < ti.Start {
			t.Errorf("task %s has inverted window", ti.ID)
		}
	}
	if washes != len(res.Schedule.TasksOf(schedule.Wash)) {
		t.Errorf("washes = %d", washes)
	}
	// ψ-integration links preserved.
	for _, ti := range doc.Tasks {
		if ti.Integrated && ti.IntegratedInto == "" {
			t.Errorf("task %s integrated without target", ti.ID)
		}
	}
}

func TestTasksSortedByStart(t *testing.T) {
	b, _ := benchmarks.ByName("Kinase act-1")
	syn, err := b.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, syn.Schedule); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(doc.Tasks); i++ {
		if doc.Tasks[i-1].Start > doc.Tasks[i].Start {
			t.Fatal("tasks not sorted by start")
		}
	}
}
