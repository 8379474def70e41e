package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/assayio"
	"pathdriverwash/internal/scheduleio"
	"pathdriverwash/internal/solve"
	"pathdriverwash/pkg/pathdriver"
)

// goldenResponse is a fully-populated degraded response with synthetic
// deterministic telemetry, covering every wire field at once.
func goldenResponse() *SolveResponse {
	return &SolveResponse{
		Schema: SchemaV1, Method: pathdriver.MethodPDW,
		Degraded: true, Cached: false, Coalesced: true, Canceled: true,
		NWash: 3, LWashMM: 126, TAssayS: 22, TDelayS: 4,
		Objective: 10.84, WindowsOptimal: true, Rounds: 2,
		Stats: &solve.Stats{
			Phases: []PhaseStatAlias{
				{Name: "necessity", Wall: 120 * time.Microsecond},
				{Name: "window-milp", Wall: 48 * time.Millisecond},
			},
			MILPs: []solve.MILPStat{{
				Label: "wash-path w1", Vars: 40, IntVars: 40, Constraints: 31,
				Nodes: 17, Pruned: 6, SimplexIters: 204,
				Status: "optimal", Optimal: true, Wall: 3 * time.Millisecond,
				Incumbents: []solve.Incumbent{{Obj: 8, Node: 3, Elapsed: time.Millisecond}},
			}},
			Skips:    map[string]int{"type2-same-fluid": 4},
			Canceled: true,
		},
		Schedule: &scheduleio.Document{
			Chip:     scheduleio.ChipInfo{Name: "motivating", Width: 9, Height: 7, CellLengthMM: 1.5, FlowVelocityMMs: 10},
			Makespan: 22,
			Tasks: []scheduleio.TaskInfo{
				{ID: "w1", Kind: "wash", Start: 4, End: 6, Path: [][2]int{{0, 0}, {1, 0}}, WashTargets: [][2]int{{1, 0}}},
			},
		},
	}
}

// PhaseStatAlias keeps the golden literal readable without importing
// solve twice.
type PhaseStatAlias = solve.PhaseStat

const goldenJSON = `{
  "schema": "pdw.v1",
  "method": "pdw",
  "degraded": true,
  "coalesced": true,
  "canceled": true,
  "n_wash": 3,
  "l_wash_mm": 126,
  "t_assay_s": 22,
  "t_delay_s": 4,
  "objective": 10.84,
  "windows_optimal": true,
  "rounds": 2,
  "stats": {
    "phases": [
      {
        "name": "necessity",
        "wall_ns": 120000
      },
      {
        "name": "window-milp",
        "wall_ns": 48000000
      }
    ],
    "milps": [
      {
        "label": "wash-path w1",
        "vars": 40,
        "int_vars": 40,
        "constraints": 31,
        "nodes": 17,
        "pruned": 6,
        "simplex_iters": 204,
        "status": "optimal",
        "optimal": true,
        "wall_ns": 3000000,
        "incumbents": [
          {
            "obj": 8,
            "node": 3,
            "elapsed_ns": 1000000
          }
        ]
      }
    ],
    "skips": {
      "type2-same-fluid": 4
    },
    "canceled": true
  },
  "schedule": {
    "chip": {
      "name": "motivating",
      "width": 9,
      "height": 7,
      "cell_length_mm": 1.5,
      "flow_velocity_mm_s": 10
    },
    "makespan_s": 22,
    "tasks": [
      {
        "id": "w1",
        "kind": "wash",
        "start_s": 4,
        "end_s": 6,
        "path": [
          [
            0,
            0
          ],
          [
            1,
            0
          ]
        ],
        "wash_targets": [
          [
            1,
            0
          ]
        ]
      }
    ]
  }
}`

// TestResponseGolden pins the v1 response encoding byte for byte:
// renaming a field, changing a tag, or reordering struct members
// breaks this test, which is exactly when the schema version must
// bump.
func TestResponseGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenResponse(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenJSON {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, goldenJSON)
	}

	// Decode the golden text and re-encode: must be byte-identical.
	var rt SolveResponse
	dec := json.NewDecoder(strings.NewReader(goldenJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rt); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(&rt, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Fatalf("round trip not stable:\n%s", again)
	}
}

// validRequestBody is a request DecodeRequest accepts; it also seeds
// FuzzDecodeRequest.
const validRequestBody = `{
  "schema": "pdw.v1",
  "method": "dawo",
  "assay": {"name": "a", "operations": [], "edges": []},
  "options": {"budget": {"total": "2s"}, "weights": {"alpha": 0.5}, "heuristic": true}
}`

// rejectedRequests are bodies DecodeRequest must refuse, by reason;
// they also seed FuzzDecodeRequest.
var rejectedRequests = map[string]string{
	"unknown top-level field": `{"assay": {"name": "a"}, "options": {}, "bogus": 1}`,
	"unknown option":          `{"assay": {"name": "a"}, "options": {"turbo": true}}`,
	"unknown budget field":    `{"assay": {"name": "a"}, "options": {"budget": {"totall": "2s"}}}`,
	"bad duration":            `{"assay": {"name": "a"}, "options": {"budget": {"total": "2 parsecs"}}}`,
	"wrong schema":            `{"schema": "pdw.v9", "assay": {"name": "a"}, "options": {}}`,
	"unknown method":          `{"method": "teleport", "assay": {"name": "a"}, "options": {}}`,
	"trailing data":           `{"assay": {"name": "a"}, "options": {}} {"again": true}`,
	"not json":                `hello`,
}

func TestDecodeRequest(t *testing.T) {
	req, err := DecodeRequest(strings.NewReader(validRequestBody))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != pathdriver.MethodDAWO || req.Options.Budget.Total != 2*time.Second {
		t.Fatalf("decoded %+v", req)
	}
	if req.Options.Weights.Alpha != 0.5 || !req.Options.Heuristic {
		t.Fatalf("options lost: %+v", req.Options)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	for name, body := range rejectedRequests {
		if _, err := DecodeRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		} else if !errors.Is(err, solve.ErrInvalidAssay) {
			t.Errorf("%s: err = %v, want ErrInvalidAssay", name, err)
		}
	}
}

// TestKeyCanonical pins the cache identity semantics: operation order
// and budgets do not change the key; weights, method, and assay
// content do.
func TestKeyCanonical(t *testing.T) {
	a, _, err := pathdriver.MotivatingExample()
	if err != nil {
		t.Fatal(err)
	}
	doc := pathdriver.NewAssayDocument(a, pathdriver.SynthConfig{})
	base := &SolveRequest{Assay: doc}

	shuffled := *base
	shuffled.Assay.Operations = append([]assayio.Operation{}, doc.Operations...)
	for i, j := 0, len(shuffled.Assay.Operations)-1; i < j; i, j = i+1, j-1 {
		shuffled.Assay.Operations[i], shuffled.Assay.Operations[j] =
			shuffled.Assay.Operations[j], shuffled.Assay.Operations[i]
	}
	if Key(base) != Key(&shuffled) {
		t.Error("operation order must not change the key")
	}

	budgeted := *base
	budgeted.Options.Budget = pathdriver.Budget{Total: time.Minute}
	if Key(base) != Key(&budgeted) {
		t.Error("budget must not change the key")
	}

	pdwKey := Key(base)
	dawo := *base
	dawo.Method = pathdriver.MethodDAWO
	if Key(&dawo) == pdwKey {
		t.Error("method must change the key")
	}
	weighted := *base
	weighted.Options.Weights.Alpha = 0.9
	if Key(&weighted) == pdwKey {
		t.Error("weights must change the key")
	}
	explicit := *base
	explicit.Method = pathdriver.MethodPDW
	if Key(&explicit) != pdwKey {
		t.Error(`"" and "pdw" must share a key`)
	}
}
