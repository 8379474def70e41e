package report

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// BenchSchemaVersion is the current bench-file schema. Consumers should
// reject files with a greater major version; additions within a version
// are strictly backward compatible (new optional fields only). Version 2
// dropped the per-method simplex_pivots count: no search solves an LP.
const BenchSchemaVersion = 2

// BenchFile is the machine-readable result of a cmd/pdwbench sweep
// (-json out.json, or BENCH_pdw.json from `make bench`). The schema is
// stable: field names are part of the contract and never change within
// a schema version.
type BenchFile struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"` // RFC 3339 UTC
	GoVersion     string `json:"go_version"`
	// Quick marks a -quick run (reduced solver budgets); quick numbers
	// are smoke-test grade and must not be compared against full runs.
	Quick            bool    `json:"quick"`
	Workers          int     `json:"workers"`
	TotalWallSeconds float64 `json:"total_wall_seconds"`
	// Benchmarks holds one entry per benchmark that completed.
	Benchmarks []BenchResult `json:"benchmarks"`
	// Failures lists benchmarks that did not complete; a sweep with
	// failures still reports every row it could produce.
	Failures []BenchFailure `json:"failures,omitempty"`
	// Metrics is the process-wide observability counter snapshot taken
	// after the sweep (histogram families appear as _count/_sum pairs).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchResult is one benchmark's measured Table II quantities for both
// methods plus the solver-effort telemetry of the PDW run.
type BenchResult struct {
	Name    string `json:"name"`
	Ops     int    `json:"ops"`
	Devices int    `json:"devices"`
	Tasks   int    `json:"tasks"`

	// SetupSeconds breaks down the wall time of the shared pipeline
	// stages that precede both optimizers (keys "synthesis" and
	// "compress-base"). Optional within schema v1: files written before
	// the regression radar omit it.
	SetupSeconds map[string]float64 `json:"setup_s,omitempty"`

	DAWO MethodResult `json:"dawo"`
	PDW  MethodResult `json:"pdw"`
}

// MethodResult is one optimizer's metrics on one benchmark.
type MethodResult struct {
	NWash           int     `json:"n_wash"`
	LWashMM         float64 `json:"l_wash_mm"`
	TDelaySeconds   int     `json:"t_delay_s"`
	TAssaySeconds   int     `json:"t_assay_s"`
	AvgWaitSeconds  float64 `json:"avg_wait_s"`
	WashTimeSeconds int     `json:"wash_time_s"`
	BufferMM        float64 `json:"buffer_mm"`
	WallSeconds     float64 `json:"wall_s"`
	BBNodes         int     `json:"bb_nodes"`
	BBPruned        int     `json:"bb_pruned"`
	WindowsOptimal  bool    `json:"windows_optimal,omitempty"`
	Canceled        bool    `json:"canceled,omitempty"`

	// WallSamples are the per-iteration wall times (seconds) of a
	// `pdwbench -count N` sweep, one entry per completed iteration;
	// WallSeconds is then the first iteration's time. Optional within
	// schema v1: single-shot sweeps omit it, and Diff falls back to
	// fixed-threshold comparison when either side carries too few
	// samples for a significance test.
	WallSamples []float64 `json:"wall_samples,omitempty"`
	// PhaseSeconds breaks the method's wall time down by pipeline phase
	// (solve.Stats phase names: "wash-insertion", "window-milp",
	// "verify", ...), summed across rounds. Optional within schema v1.
	PhaseSeconds map[string]float64 `json:"phase_s,omitempty"`
}

// BenchFailure records one benchmark that failed to complete.
type BenchFailure struct {
	Name  string `json:"name"`
	Error string `json:"error"`
}

// Validate checks the structural invariants of the schema: version,
// parseable timestamp, unique non-empty benchmark names, and sane
// (non-negative) measurements. It is what `pdwbench -validate` and the
// `make bench-smoke` gate run against generated files.
func (f *BenchFile) Validate() error {
	if f.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("benchjson: schema_version %d, want %d", f.SchemaVersion, BenchSchemaVersion)
	}
	if _, err := time.Parse(time.RFC3339, f.GeneratedAt); err != nil {
		return fmt.Errorf("benchjson: generated_at %q is not RFC 3339: %w", f.GeneratedAt, err)
	}
	if f.GoVersion == "" {
		return fmt.Errorf("benchjson: go_version is empty")
	}
	if f.TotalWallSeconds < 0 {
		return fmt.Errorf("benchjson: total_wall_seconds %g is negative", f.TotalWallSeconds)
	}
	if len(f.Benchmarks) == 0 && len(f.Failures) == 0 {
		return fmt.Errorf("benchjson: no benchmarks and no failures")
	}
	seen := map[string]bool{}
	for i, b := range f.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("benchjson: benchmarks[%d] has no name", i)
		}
		if seen[b.Name] {
			return fmt.Errorf("benchjson: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Ops <= 0 || b.Tasks <= 0 {
			return fmt.Errorf("benchjson: %s: ops=%d tasks=%d must be positive", b.Name, b.Ops, b.Tasks)
		}
		for phase, sec := range b.SetupSeconds {
			if sec < 0 {
				return fmt.Errorf("benchjson: %s: setup_s[%s] %g is negative", b.Name, phase, sec)
			}
		}
		for _, m := range []struct {
			method string
			r      MethodResult
		}{{"dawo", b.DAWO}, {"pdw", b.PDW}} {
			if err := m.r.validate(); err != nil {
				return fmt.Errorf("benchjson: %s: %s: %w", b.Name, m.method, err)
			}
		}
	}
	for i, fl := range f.Failures {
		if fl.Name == "" || fl.Error == "" {
			return fmt.Errorf("benchjson: failures[%d] needs both name and error", i)
		}
		if seen[fl.Name] {
			return fmt.Errorf("benchjson: %q listed as both result and failure", fl.Name)
		}
	}
	return nil
}

func (m MethodResult) validate() error {
	switch {
	case m.NWash < 0:
		return fmt.Errorf("n_wash %d is negative", m.NWash)
	case m.LWashMM < 0:
		return fmt.Errorf("l_wash_mm %g is negative", m.LWashMM)
	case m.TDelaySeconds < 0:
		return fmt.Errorf("t_delay_s %d is negative", m.TDelaySeconds)
	case m.TAssaySeconds <= 0:
		return fmt.Errorf("t_assay_s %d must be positive", m.TAssaySeconds)
	case m.WallSeconds < 0:
		return fmt.Errorf("wall_s %g is negative", m.WallSeconds)
	case m.BBNodes < 0:
		return fmt.Errorf("bb_nodes %d is negative", m.BBNodes)
	}
	for i, s := range m.WallSamples {
		if s < 0 {
			return fmt.Errorf("wall_samples[%d] %g is negative", i, s)
		}
	}
	for phase, sec := range m.PhaseSeconds {
		if sec < 0 {
			return fmt.Errorf("phase_s[%s] %g is negative", phase, sec)
		}
	}
	return nil
}

// WriteBenchJSON writes the file as indented JSON.
func WriteBenchJSON(w io.Writer, f *BenchFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadBenchJSON parses and validates a bench file.
func ReadBenchJSON(r io.Reader) (*BenchFile, error) {
	var f BenchFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}
