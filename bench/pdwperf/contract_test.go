package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONContract(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	var wls []string
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, " ") != strings.Join(workloads, " ") {
		t.Errorf("workloads %v, the benchmark runs %v", wls, workloads)
	}

	largest, setupBound := 0.0, -1.0
	declared := map[string]metricDecl{}
	for _, m := range b.EndToEnd {
		name("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		largest = max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
		declared[m.Name] = metricDecl{unit: m.Unit}
	}
	if setupBound != largest {
		t.Errorf("setup_s bound %g, want the largest bound %g", setupBound, largest)
	}
	checkSameMetrics(t, "end-to-end", declared, endToEnd)

	declared = map[string]metricDecl{}
	for _, m := range b.PerLayer {
		name("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		declared[m.Name] = metricDecl{unit: m.Unit}
	}
	checkSameMetrics(t, "per-layer", declared, perLayer)

	// Every per-layer metric names the end-to-end metric it should move
	// and the workload it moves it on.
	for n, d := range perLayer {
		if len(d.moves) == 0 {
			t.Errorf("per-layer %s names no end-to-end metric it moves", n)
		}
		for _, mv := range d.moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if _, known := endToEnd[metric]; !ok || !known || !slices.Contains(workloads, wl) {
				t.Errorf("per-layer %s moves %q: want a declared metric@workload", n, mv)
			}
		}
	}
}

// checkSameMetrics compares the names and units in BENCHMARK.json with
// the ones the benchmark reports.
func checkSameMetrics(t *testing.T, kind string, declared, reported map[string]metricDecl) {
	t.Helper()
	if got, want := keys(reported), keys(declared); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s metrics reported %v, declared %v", kind, got, want)
	}
	for n, d := range declared {
		if r, ok := reported[n]; ok && r.unit != d.unit {
			t.Errorf("%s %s: reported in %q, declared in %q", kind, n, r.unit, d.unit)
		}
	}
}

// TestLibraryWorkloadsPrintDeclaredMetrics runs each library workload
// on one instance for one pass, untraced and traced, and checks the
// JSON line carries exactly the declared metrics.
func TestLibraryWorkloadsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("solves one instance per workload")
	}
	b := loadBenchmarkJSON(t)
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, wl := range workloads {
		w, ok := libWorkloads[wl]
		if !ok {
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 1, seconds: time.Second, setups: 1, instances: 1, maxPasses: 1}
			decls, want := endToEnd, e2e
			if traced {
				cfg.tracePath = filepath.Join(t.TempDir(), "trace.json")
				decls, want = perLayer, layer
			}
			rep, err := runLibrary(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out, decls); err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]resultValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", wl, err)
			}
			if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			if got := keys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v printed %v, declared %v", wl, traced, got, want)
			}
			if traced {
				raw, err := os.ReadFile(cfg.tracePath)
				if err != nil {
					t.Fatal(err)
				}
				var events []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
				}
				if err := json.Unmarshal(raw, &events); err != nil {
					t.Fatalf("%s: trace is not Chrome trace JSON: %v", wl, err)
				}
				names := map[string]bool{}
				for _, e := range events {
					names[e.Name] = true
				}
				for _, n := range []string{"run", "op", "synth", "optimize", "check"} {
					if !names[n] {
						t.Errorf("%s: trace has no %q span", wl, n)
					}
				}
			}
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
