package report

import (
	"bytes"
	"strings"
	"testing"
)

func validBenchFile() *BenchFile {
	return &BenchFile{
		SchemaVersion:    BenchSchemaVersion,
		GeneratedAt:      "2026-08-06T12:00:00Z",
		GoVersion:        "go1.22.0",
		Quick:            true,
		Workers:          4,
		TotalWallSeconds: 12.5,
		Benchmarks: []BenchResult{{
			Name: "PCR", Ops: 7, Devices: 5, Tasks: 15,
			DAWO: MethodResult{NWash: 11, LWashMM: 150, TDelaySeconds: 41, TAssaySeconds: 90,
				WallSeconds: 0.2, BBNodes: 10},
			PDW: MethodResult{NWash: 7, LWashMM: 93, TDelaySeconds: 26, TAssaySeconds: 75,
				WallSeconds: 1.5, BBNodes: 40, WindowsOptimal: true},
		}},
		Metrics: map[string]float64{"pdw_bb_nodes_total": 50},
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	f := validBenchFile()
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks[0].PDW.NWash != 7 || !got.Benchmarks[0].PDW.WindowsOptimal {
		t.Errorf("round trip lost data: %+v", got.Benchmarks[0].PDW)
	}
	if got.Metrics["pdw_bb_nodes_total"] != 50 {
		t.Errorf("metrics snapshot lost: %v", got.Metrics)
	}
}

func TestBenchFileValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*BenchFile)
		wantErr string
	}{
		{"valid", func(f *BenchFile) {}, ""},
		{"wrong schema version", func(f *BenchFile) { f.SchemaVersion = BenchSchemaVersion + 1 }, "schema_version"},
		{"version 1 file", func(f *BenchFile) { f.SchemaVersion = 1 }, "schema_version"},
		{"bad timestamp", func(f *BenchFile) { f.GeneratedAt = "yesterday" }, "RFC 3339"},
		{"empty timestamp", func(f *BenchFile) { f.GeneratedAt = "" }, "RFC 3339"},
		{"date-only timestamp", func(f *BenchFile) { f.GeneratedAt = "2026-08-06" }, "RFC 3339"},
		{"no-zone timestamp", func(f *BenchFile) { f.GeneratedAt = "2026-08-06T12:00:00" }, "RFC 3339"},
		{"impossible timestamp", func(f *BenchFile) { f.GeneratedAt = "2026-13-40T99:99:99Z" }, "RFC 3339"},
		{"negative sample", func(f *BenchFile) {
			f.Benchmarks[0].PDW.WallSamples = []float64{0.5, -0.1}
		}, "wall_samples"},
		{"negative phase", func(f *BenchFile) {
			f.Benchmarks[0].PDW.PhaseSeconds = map[string]float64{"window-milp": -1}
		}, "phase_s"},
		{"negative setup", func(f *BenchFile) {
			f.Benchmarks[0].SetupSeconds = map[string]float64{"synthesis": -1}
		}, "setup_s"},
		{"samples and phases valid", func(f *BenchFile) {
			f.Benchmarks[0].PDW.WallSamples = []float64{0.5, 0.6, 0.7}
			f.Benchmarks[0].PDW.PhaseSeconds = map[string]float64{"window-milp": 0.3}
			f.Benchmarks[0].SetupSeconds = map[string]float64{"synthesis": 0.1}
		}, ""},
		{"missing go version", func(f *BenchFile) { f.GoVersion = "" }, "go_version"},
		{"negative wall", func(f *BenchFile) { f.TotalWallSeconds = -1 }, "total_wall_seconds"},
		{"empty file", func(f *BenchFile) { f.Benchmarks, f.Failures = nil, nil }, "no benchmarks"},
		{"unnamed benchmark", func(f *BenchFile) { f.Benchmarks[0].Name = "" }, "no name"},
		{"duplicate benchmark", func(f *BenchFile) {
			f.Benchmarks = append(f.Benchmarks, f.Benchmarks[0])
		}, "duplicate"},
		{"zero tassay", func(f *BenchFile) { f.Benchmarks[0].PDW.TAssaySeconds = 0 }, "t_assay_s"},
		{"negative nwash", func(f *BenchFile) { f.Benchmarks[0].DAWO.NWash = -1 }, "n_wash"},
		{"failure without error", func(f *BenchFile) {
			f.Failures = []BenchFailure{{Name: "IVD"}}
		}, "needs both"},
		{"result and failure", func(f *BenchFile) {
			f.Failures = []BenchFailure{{Name: "PCR", Error: "boom"}}
		}, "both result and failure"},
		{"failures only is valid", func(f *BenchFile) {
			f.Benchmarks = nil
			f.Failures = []BenchFailure{{Name: "PCR", Error: "boom"}}
		}, ""},
	}
	for _, c := range cases {
		f := validBenchFile()
		c.mutate(f)
		err := f.Validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestReadBenchJSONRejectsUnknownFields(t *testing.T) {
	raw := strings.Replace(mustJSON(t), `"quick"`, `"qwick"`, 1)
	if _, err := ReadBenchJSON(strings.NewReader(raw)); err == nil {
		t.Error("unknown field accepted; schema drift would go unnoticed")
	}
}

func mustJSON(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, validBenchFile()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
