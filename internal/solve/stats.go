package solve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pathdriverwash/internal/obs"
)

// Incumbent is one point of a branch & bound incumbent trajectory: a new
// best feasible solution found Elapsed into the solve at node Node.
type Incumbent struct {
	Obj     float64       `json:"obj"`
	Node    int           `json:"node"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// MILPStat describes one exact search: the size of the ILP it solves,
// the branch & bound work it did, and how it ended.
type MILPStat struct {
	// Label identifies the search ("wash-path[3t r0]", "window-milp").
	Label string `json:"label"`
	// Vars / IntVars / Constraints give the model size.
	Vars        int `json:"vars"`
	IntVars     int `json:"int_vars"`
	Constraints int `json:"constraints"`
	// Nodes and Pruned count search nodes explored and subproblems
	// discarded by bound.
	Nodes  int `json:"nodes"`
	Pruned int `json:"pruned"`
	// SimplexIters is always 0: no search solves an LP. It stays on the
	// pdw.v1 wire, which bench/pdwperf reads.
	SimplexIters int `json:"simplex_iters"`
	// Status is the solver's final status string.
	Status string `json:"status"`
	// Optimal reports a proven optimum (false: best-effort incumbent).
	Optimal bool `json:"optimal"`
	// Wall is the solve's wall-clock time.
	Wall time.Duration `json:"wall_ns"`
	// Incumbents is the incumbent trajectory of the solve.
	Incumbents []Incumbent `json:"incumbents,omitempty"`
}

// PhaseStat is the wall time of one pipeline phase.
type PhaseStat struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
}

// Stats is the structured telemetry of one optimizer run, threaded
// through the solve call path. All methods are safe for concurrent use
// and tolerate a nil receiver, so call sites never need to guard.
// Stats marshals to JSON with stable snake_case field names and
// duration fields in nanoseconds — it is the telemetry half of the pdwd
// solve response (DESIGN.md "Wire schema v1"). Marshal only after the
// solve has finished: encoding/json reads the exported fields without
// taking mu.
type Stats struct {
	mu sync.Mutex
	// Phases are the pipeline phases in execution order.
	Phases []PhaseStat `json:"phases,omitempty"`
	// MILPs are the ILP solves, in execution order.
	MILPs []MILPStat `json:"milps,omitempty"`
	// Skips counts contamination events excused per Type 1/2/3 rule
	// (keys "type1-unused", "type2-same-fluid", "type3-waste-only",
	// "wash-needed").
	Skips map[string]int `json:"skips,omitempty"`
	// Canceled reports that the run's context was canceled or its
	// deadline expired and later phases degraded to incumbents.
	Canceled bool `json:"canceled,omitempty"`

	// progress is the optional live view of the run (see Progress):
	// StartPhase and MarkCanceled mirror into it so /debug/solves shows
	// the current phase without any extra call-site bookkeeping. Not
	// marshaled — the wire carries final Stats, the registry live ones.
	progress *Progress
}

// BindProgress attaches a live progress view: subsequent StartPhase
// and MarkCanceled calls mirror into it. Nil-safe on both sides.
func (s *Stats) BindProgress(p *Progress) {
	if s == nil || p == nil {
		return
	}
	s.mu.Lock()
	s.progress = p
	s.mu.Unlock()
}

// Progress returns the bound live view, or nil.
func (s *Stats) Progress() *Progress {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progress
}

// StartPhase opens a named phase and returns the closer that records
// its wall time. Usage: defer s.StartPhase("window-milp")(). The
// closer also feeds the process-wide pdw_phase_seconds histogram, so
// Stats and the metrics registry stay consistent without parallel
// bookkeeping at call sites.
func (s *Stats) StartPhase(name string) func() {
	if s == nil {
		return func() {}
	}
	s.Progress().SetPhase(name)
	t0 := time.Now()
	return func() {
		wall := time.Since(t0)
		obs.Default().Histogram("pdw_phase_seconds", nil, "phase", name).Observe(wall.Seconds())
		s.mu.Lock()
		defer s.mu.Unlock()
		s.Phases = append(s.Phases, PhaseStat{Name: name, Wall: wall})
	}
}

// StartPhaseContext is StartPhase plus span tracing: it opens a
// "phase.<name>" span parented under ctx and returns the derived
// context, so solves inside the phase nest under it in the trace. The
// closer ends the span and records the wall time exactly as StartPhase
// does. Safe on a nil receiver and with observability disabled (the
// returned context is then ctx unchanged).
func (s *Stats) StartPhaseContext(ctx context.Context, name string) (context.Context, func()) {
	ctx, span := obs.Start(ctx, "phase."+name)
	end := s.StartPhase(name)
	return ctx, func() {
		span.End()
		end()
	}
}

// PhaseList returns a copy of the recorded phases in execution order.
// The solve service snapshots it into the flight recorder's per-request
// records (internal/obs/reqlog), which must not alias the live slice.
func (s *Stats) PhaseList() []PhaseStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]PhaseStat(nil), s.Phases...)
}

// PhaseSeconds sums the recorded phase wall times by name, in seconds.
// It returns nil when no phases were recorded, so callers can embed the
// map directly into omitempty JSON fields (the bench-file per-phase
// breakdown in internal/report).
func (s *Stats) PhaseSeconds() map[string]float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.Phases) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.Phases))
	for _, p := range s.Phases {
		out[p.Name] += p.Wall.Seconds()
	}
	return out
}

// AddMILP appends one ILP solve record.
func (s *Stats) AddMILP(m MILPStat) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.MILPs = append(s.MILPs, m)
}

// SetSkips records the wash-necessity skip counts, mirroring them to
// the pdw_necessity_skips_total counter family.
func (s *Stats) SetSkips(skips map[string]int) {
	if s == nil {
		return
	}
	for reason, n := range skips {
		obs.Default().Counter("pdw_necessity_skips_total", "reason", reason).Add(int64(n))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Skips = skips
}

// MarkCanceled flags the run as budget-expired.
func (s *Stats) MarkCanceled() {
	if s == nil {
		return
	}
	s.mu.Lock()
	p := s.progress
	s.Canceled = true
	s.mu.Unlock()
	p.MarkCanceled()
}

// Nodes sums explored branch & bound nodes over all ILP solves.
func (s *Stats) Nodes() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, m := range s.MILPs {
		n += m.Nodes
	}
	return n
}

// Pruned sums bound-pruned subproblems over all ILP solves.
func (s *Stats) Pruned() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, m := range s.MILPs {
		n += m.Pruned
	}
	return n
}

// Summary renders the trace as an indented human-readable block, the
// format cmd/pdw -stats and cmd/pdwbench print.
func (s *Stats) Summary() string {
	if s == nil {
		return "  (no stats recorded)"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "  phase %-16s %8.1fms\n", p.Name, p.Wall.Seconds()*1e3)
	}
	if len(s.Skips) > 0 {
		keys := make([]string, 0, len(s.Skips))
		for k := range s.Skips {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  necessity skips:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, s.Skips[k])
		}
		b.WriteByte('\n')
	}
	nodes, pruned := 0, 0
	for _, m := range s.MILPs {
		nodes += m.Nodes
		pruned += m.Pruned
	}
	fmt.Fprintf(&b, "  ILP solves: %d (B&B nodes %d explored / %d pruned)\n",
		len(s.MILPs), nodes, pruned)
	for _, m := range s.MILPs {
		fmt.Fprintf(&b, "    %-18s %4dv/%3di/%4dc  nodes %5d  %-15s %7.1fms",
			m.Label, m.Vars, m.IntVars, m.Constraints, m.Nodes, m.Status, m.Wall.Seconds()*1e3)
		if len(m.Incumbents) > 0 {
			last := m.Incumbents[len(m.Incumbents)-1]
			fmt.Fprintf(&b, "  incumbents %d (best %.2f @%dms)",
				len(m.Incumbents), last.Obj, last.Elapsed.Milliseconds())
		}
		b.WriteByte('\n')
	}
	if s.Canceled {
		b.WriteString("  budget expired: later phases degraded to incumbents\n")
	}
	return strings.TrimRight(b.String(), "\n")
}
