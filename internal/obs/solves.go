package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SolveSnapshot is one point-in-time view of an in-flight solve: the
// live counters internal/solve.Progress accumulates from the exact
// searches (nodes, pruned subproblems, incumbent/bound trajectory)
// plus the current pipeline phase and search model. It lives here rather
// than in internal/solve so the solve registry below can serve it
// without obs importing the solver stack (solve already imports obs).
//
// BestObj, Bound, and Gap are pointers so "no incumbent yet" is an
// absent JSON field rather than a NaN encoding/json refuses to write.
type SolveSnapshot struct {
	// Phase is the pipeline phase currently running ("wash-insertion",
	// "window-milp", ...); Model the search currently running
	// ("wash-path[3t r0]", "window-milp").
	Phase string `json:"phase,omitempty"`
	Model string `json:"model,omitempty"`
	// Nodes/Pruned/Incumbents count branch & bound work across every
	// search of the solve so far.
	Nodes      int64 `json:"nodes"`
	Pruned     int64 `json:"pruned"`
	Incumbents int64 `json:"incumbents"`
	// BestObj is the best incumbent objective, Bound the best proven
	// lower bound of the current search, Gap their relative distance.
	BestObj *float64 `json:"best_obj,omitempty"`
	Bound   *float64 `json:"bound,omitempty"`
	Gap     *float64 `json:"gap,omitempty"`
	// Canceled reports the solve's budget expired and it is degrading
	// to incumbents.
	Canceled bool `json:"canceled,omitempty"`
	// Elapsed is the time since the solve's progress view was created.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// solveEntry is one registered in-flight solve.
type solveEntry struct {
	id    string
	kind  string // "request", "cli", "benchmark"
	label string
	start time.Time
	snap  func() SolveSnapshot
}

// solveReg is the process-wide registry of in-flight root solves. Every
// root solve (a pdwd request, a cmd/pdw run, a pdwbench benchmark)
// registers its live progress here for the /debug/solves surface; the
// per-solve cost is one mutex acquisition at start and one at end.
var solveReg = struct {
	sync.Mutex
	seq uint64
	m   map[string]*solveEntry
}{m: map[string]*solveEntry{}}

// RegisterSolve adds an in-flight solve to the /debug/solves registry
// under the given id (empty: a fresh "solve-N" id is minted; duplicate:
// a "#N" suffix disambiguates) and returns the function that removes it
// when the solve finishes. snap must be safe to call concurrently with
// the running solve — internal/solve.Progress.Snapshot is.
func RegisterSolve(id, kind, label string, snap func() SolveSnapshot) (unregister func()) {
	solveReg.Lock()
	solveReg.seq++
	if id == "" {
		id = fmt.Sprintf("solve-%d", solveReg.seq)
	} else if _, taken := solveReg.m[id]; taken {
		id = fmt.Sprintf("%s#%d", id, solveReg.seq)
	}
	solveReg.m[id] = &solveEntry{id: id, kind: kind, label: label, start: time.Now(), snap: snap}
	solveReg.Unlock()
	return func() {
		solveReg.Lock()
		delete(solveReg.m, id)
		solveReg.Unlock()
	}
}

// solveView is the wire shape of one in-flight solve: the snapshot
// plus identity, age, and derived rates.
type solveView struct {
	ID    string        `json:"id"`
	Kind  string        `json:"kind"`
	Label string        `json:"label,omitempty"`
	Age   time.Duration `json:"age_ns"`
	SolveSnapshot
	// NodesPerSec is averaged over the solve's age on the listing/get
	// endpoints and over the tick window on /watch.
	NodesPerSec float64 `json:"nodes_per_sec"`
}

// viewOf renders one registered solve, with rates averaged over its
// age.
func viewOf(e *solveEntry) solveView {
	v := solveView{ID: e.id, Kind: e.kind, Label: e.label, SolveSnapshot: e.snap()}
	v.Age = time.Since(e.start)
	if secs := v.Age.Seconds(); secs > 0 {
		v.NodesPerSec = float64(v.Nodes) / secs
	}
	return v
}

// lookupSolve fetches one registered solve by id.
func lookupSolve(id string) (*solveEntry, bool) {
	solveReg.Lock()
	defer solveReg.Unlock()
	e, ok := solveReg.m[id]
	return e, ok
}

// handleSolves lists the in-flight solves, oldest first.
func handleSolves(w http.ResponseWriter, r *http.Request) {
	solveReg.Lock()
	entries := make([]*solveEntry, 0, len(solveReg.m))
	for _, e := range solveReg.m {
		entries = append(entries, e)
	}
	solveReg.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].start.Equal(entries[j].start) {
			return entries[i].start.Before(entries[j].start)
		}
		return entries[i].id < entries[j].id
	})
	views := make([]solveView, 0, len(entries))
	for _, e := range entries {
		views = append(views, viewOf(e))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"count": len(views), "solves": views})
}

// handleSolve serves the full JSON snapshot of one in-flight solve.
func handleSolve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := lookupSolve(id)
	if !ok {
		http.Error(w, "obs: no in-flight solve "+strconv.Quote(id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(viewOf(e))
}

// watchInterval parses the ?interval= query of the watch endpoint.
// Default 500ms, floor 50ms so a typo cannot spin the server.
func watchInterval(r *http.Request) (time.Duration, error) {
	s := r.URL.Query().Get("interval")
	if s == "" {
		return 500 * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("obs: bad interval %q: %w", s, err)
	}
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d, nil
}

// handleSolveWatch streams snapshots of one in-flight solve as
// server-sent events: one "data:" JSON line per interval, with rates
// computed over the tick window, closing with an "event: done" once
// the solve unregisters (or when the client hangs up).
func handleSolveWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := lookupSolve(id); !ok {
		http.Error(w, "obs: no in-flight solve "+strconv.Quote(id), http.StatusNotFound)
		return
	}
	interval, err := watchInterval(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "obs: streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var last solveView
	var lastAt time.Time
	emit := func(e *solveEntry) {
		v := viewOf(e)
		now := time.Now()
		if !lastAt.IsZero() {
			// Windowed rates: the delta since the previous tick is what a
			// dashboard wants ("is it still moving?"), not the lifetime
			// average.
			if secs := now.Sub(lastAt).Seconds(); secs > 0 {
				v.NodesPerSec = float64(v.Nodes-last.Nodes) / secs
			}
		}
		last, lastAt = v, now
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", b)
		flusher.Flush()
	}
	if e, ok := lookupSolve(id); ok {
		emit(e)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			e, ok := lookupSolve(id)
			if !ok {
				fmt.Fprint(w, "event: done\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			emit(e)
		}
	}
}
