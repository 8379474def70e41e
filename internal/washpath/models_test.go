package washpath

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/solve"
)

// modelFile is one chip's captured wash-path models, as committed under
// testdata/models: the chip as rows ('.' empty, '-' channel, 'D' device
// cell, 'I' flow port, 'O' waste port) and the target sets exact PDW
// built paths for on it.
type modelFile struct {
	Chip   []string      `json:"chip"`
	Models []pathModelTC `json:"models"`
}

// pathModelTC is one captured build. ILP is the path ILP's proven
// optimum in cells, ports included, -1 when it proved infeasibility;
// both over the cells its heuristic-length pruning keeps, so the
// search must return min(ILP, heuristic). ILPMillis is the ILP's solve
// time at capture.
type pathModelTC struct {
	Targets   [][2]int `json:"targets"`
	ILP       int      `json:"ilp"`
	ILPMillis int64    `json:"ilp_ms"`
}

func (tc pathModelTC) points() []geom.Point {
	out := make([]geom.Point, len(tc.Targets))
	for i, t := range tc.Targets {
		out[i] = geom.Pt(t[0], t[1])
	}
	return out
}

// encodeChip renders the chip rows of a modelFile.
func encodeChip(c *grid.Chip) []string {
	rows := make([]string, c.H)
	for y := range c.H {
		var b strings.Builder
		for x := range c.W {
			p := geom.Pt(x, y)
			switch c.KindAt(p) {
			case grid.Empty:
				b.WriteByte('.')
			case grid.Channel:
				b.WriteByte('-')
			case grid.DeviceCell:
				b.WriteByte('D')
			case grid.FlowPortCell:
				b.WriteByte('I')
			case grid.WastePortCell:
				b.WriteByte('O')
			}
		}
		rows[y] = b.String()
	}
	return rows
}

// decodeChip rebuilds a chip from modelFile rows, each device cell a
// one-cell device: the path models see device cells only as cells to
// avoid unless they are targets.
func decodeChip(rows []string) (*grid.Chip, error) {
	c := grid.NewChip("captured", len(rows[0]), len(rows))
	for y, row := range rows {
		for x, ch := range []byte(row) {
			p := geom.Pt(x, y)
			var err error
			switch ch {
			case '-':
				err = c.AddChannel(p)
			case 'D':
				_, err = c.AddDevice(p.String(), grid.Mixer, geom.Rc(x, y, x+1, y+1))
			case 'I':
				_, err = c.AddPort(fmt.Sprintf("in%d", len(c.Ports())), grid.FlowPort, p)
			case 'O':
				_, err = c.AddPort(fmt.Sprintf("out%d", len(c.Ports())), grid.WastePort, p)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return c, c.Validate()
}

// captureILPLimit is the ILP's cap when models are captured.
const captureILPLimit = time.Minute

// writeModels records the distinct target sets built on chip, each with
// its ILP optimum under captureILPLimit, to file as a modelFile. Sets
// whose ILP does not close are left out.
func writeModels(file string, chip *grid.Chip, sets [][]geom.Point) (int, error) {
	mf := modelFile{Chip: encodeChip(chip)}
	seen := map[string]bool{}
	for _, set := range sets {
		key := fmt.Sprint(set)
		if seen[key] {
			continue
		}
		seen[key] = true
		tc := pathModelTC{}
		for _, p := range set {
			tc.Targets = append(tc.Targets, [2]int{p.X, p.Y})
		}
		heur, herr := heuristic(chip, Request{Targets: set})
		start := time.Now()
		plan, err := buildILP(context.Background(), chip, Request{Targets: set}, captureILPLimit, heur, herr == nil)
		tc.ILPMillis = time.Since(start).Milliseconds()
		switch {
		case err == nil:
			tc.ILP = plan.Path.Len()
		case errors.Is(err, solve.ErrInfeasible):
			tc.ILP = -1
		default:
			continue
		}
		mf.Models = append(mf.Models, tc)
	}
	var b bytes.Buffer
	b.WriteString("{\"chip\": ")
	rows, _ := json.Marshal(mf.Chip)
	b.Write(rows)
	b.WriteString(",\n\"models\": [")
	for i, tc := range mf.Models {
		if i > 0 {
			b.WriteByte(',')
		}
		line, _ := json.Marshal(tc)
		b.WriteString("\n")
		b.Write(line)
	}
	b.WriteString("\n]}\n")
	return len(mf.Models), os.WriteFile(file, b.Bytes(), 0o644)
}

// loadModels reads every committed model file.
func loadModels(t *testing.T) map[string]modelFile {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "models", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no captured models: %v", err)
	}
	out := map[string]modelFile{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var mf modelFile
		if err := json.Unmarshal(data, &mf); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".json")] = mf
	}
	return out
}

// TestSearchMatchesCapturedModels requires the search to return, on
// every captured model, a proven path as long as the shorter of the
// recorded ILP optimum and the heuristic, and to fail where both are
// infeasible.
func TestSearchMatchesCapturedModels(t *testing.T) {
	all := loadModels(t)
	var names []string
	for n := range all {
		names = append(names, n)
	}
	slices.Sort(names)
	total, beat, slowest := 0, 0, time.Duration(0)
	for _, name := range names {
		mf := all[name]
		chip, err := decodeChip(mf.Chip)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, tc := range mf.Models {
			targets := tc.points()
			want := tc.ILP
			heur, herr := Build(chip, Request{Targets: targets}, Options{})
			if herr == nil && (want < 0 || heur.Path.Len() < want) {
				want = heur.Path.Len()
			}
			stats := &solve.Stats{}
			plan, err := Build(chip, Request{Targets: targets}, Options{Exact: true, TimeLimit: time.Minute, Trace: stats})
			total++
			slowest = max(slowest, stats.MILPs[0].Wall)
			if want < 0 {
				if !errors.Is(err, solve.ErrInfeasible) {
					t.Errorf("%s model %d: ILP and heuristic infeasible, search gave %v, %v", name, i, plan.Path, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s model %d: want %d cells, search failed: %v", name, i, want, err)
				continue
			}
			if plan.Path.Len() != want || !plan.Optimal {
				t.Errorf("%s model %d: search %d cells (optimal %v), ILP %d, heuristic %d (%v)",
					name, i, plan.Path.Len(), plan.Optimal, tc.ILP, heur.Path.Len(), herr)
			}
			if herr == nil && plan.Path.Len() < heur.Path.Len() {
				beat++
			}
		}
	}
	t.Logf("%d models in %d files; %d paths shorter than the heuristic; slowest search %v",
		total, len(names), beat, slowest)
}

// TestILPOracleReproducesCapturedModels reruns the ILP on the captured
// models it closed in about a second (a tenth of a second in -short and
// race-detector runs), and requires the recorded answer.
func TestILPOracleReproducesCapturedModels(t *testing.T) {
	limit := int64(1000)
	if testing.Short() || raceEnabled {
		limit = 100
	}
	all := loadModels(t)
	rerun := 0
	for name, mf := range all {
		chip, err := decodeChip(mf.Chip)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, tc := range mf.Models {
			if tc.ILPMillis > limit {
				continue
			}
			targets := tc.points()
			heur, herr := heuristic(chip, Request{Targets: targets})
			plan, err := buildILP(context.Background(), chip, Request{Targets: targets}, time.Minute, heur, herr == nil)
			got := plan.Path.Len()
			if errors.Is(err, solve.ErrInfeasible) {
				got = -1
			} else if err != nil {
				t.Fatalf("%s model %d: %v", name, i, err)
			}
			if got != tc.ILP {
				t.Errorf("%s model %d: ILP %d, recorded %d", name, i, got, tc.ILP)
			}
			rerun++
		}
	}
	t.Logf("%d models rerun", rerun)
}
