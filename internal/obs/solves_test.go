package obs

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testSnap returns a snap func serving the value the pointer holds.
func testSnap(s *atomic.Pointer[SolveSnapshot]) func() SolveSnapshot {
	return func() SolveSnapshot {
		if v := s.Load(); v != nil {
			return *v
		}
		return SolveSnapshot{}
	}
}

func snapPtr(s SolveSnapshot) *atomic.Pointer[SolveSnapshot] {
	var p atomic.Pointer[SolveSnapshot]
	p.Store(&s)
	return &p
}

func decodeSolves(t *testing.T, body string) (int, []map[string]any) {
	t.Helper()
	var out struct {
		Count  int              `json:"count"`
		Solves []map[string]any `json:"solves"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return out.Count, out.Solves
}

func TestRegisterSolveIDs(t *testing.T) {
	snap := testSnap(snapPtr(SolveSnapshot{}))
	u1 := RegisterSolve("", "cli", "a", snap)
	defer u1()
	u2 := RegisterSolve("req-1", "request", "b", snap)
	defer u2()
	u3 := RegisterSolve("req-1", "request", "c", snap) // collision
	defer u3()

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	_, body := get(t, srv.URL+"/debug/solves")
	count, solves := decodeSolves(t, body)
	if count < 3 {
		t.Fatalf("count = %d, want >= 3", count)
	}
	ids := map[string]bool{}
	for _, s := range solves {
		ids[s["id"].(string)] = true
	}
	if !ids["req-1"] {
		t.Fatalf("explicit id missing: %v", ids)
	}
	minted, disambiguated := false, false
	for id := range ids {
		if strings.HasPrefix(id, "solve-") {
			minted = true
		}
		if strings.HasPrefix(id, "req-1#") {
			disambiguated = true
		}
	}
	if !minted || !disambiguated {
		t.Fatalf("minted=%v disambiguated=%v in %v", minted, disambiguated, ids)
	}
}

func TestSolvesEndpointListAndGet(t *testing.T) {
	obj, bound := 42.5, 40.0
	gap := (obj - bound) / obj
	ptr := snapPtr(SolveSnapshot{
		Phase: "window-milp", Model: "window-milp",
		Nodes: 100, Pruned: 30, Incumbents: 2,
		BestObj: &obj, Bound: &bound, Gap: &gap,
		Elapsed: time.Second,
	})
	unregister := RegisterSolve("solves-test-1", "request", "pdw", testSnap(ptr))
	defer unregister()

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	code, body := get(t, srv.URL+"/debug/solves/solves-test-1")
	if code != http.StatusOK {
		t.Fatalf("get status %d: %s", code, body)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v["phase"] != "window-milp" || v["nodes"].(float64) != 100 || v["pruned"].(float64) != 30 {
		t.Fatalf("snapshot fields wrong: %v", v)
	}
	if v["best_obj"].(float64) != 42.5 || v["bound"].(float64) != 40.0 {
		t.Fatalf("objective fields wrong: %v", v)
	}
	if v["age_ns"].(float64) <= 0 {
		t.Fatalf("age not positive: %v", v["age_ns"])
	}
	// The lifetime-average rate derives from the published counter,
	// and no pivot series is served.
	if _, ok := v["pivots_per_sec"]; ok || v["nodes_per_sec"].(float64) <= 0 {
		t.Fatalf("rates not positive: %v", v)
	}

	if code, _ := get(t, srv.URL+"/debug/solves/no-such-solve"); code != http.StatusNotFound {
		t.Fatalf("unknown solve status %d, want 404", code)
	}

	// After unregistering, the solve leaves the listing.
	unregister()
	if code, _ := get(t, srv.URL+"/debug/solves/solves-test-1"); code != http.StatusNotFound {
		t.Fatalf("unregistered solve still served: status %d", code)
	}
}

func TestSolvesIndexListsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	if _, body := get(t, srv.URL+"/"); !strings.Contains(body, "/debug/solves") {
		t.Fatal("index does not mention /debug/solves")
	}
}

func TestSolveWatchStreams(t *testing.T) {
	ptr := snapPtr(SolveSnapshot{Phase: "p1", Nodes: 1})
	unregister := RegisterSolve("watch-test-1", "request", "pdw", testSnap(ptr))

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/solves/watch-test-1/watch?interval=60ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	readEvent := func() string {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") || strings.HasPrefix(line, "event: ") {
				return line
			}
		}
		t.Fatalf("stream ended early: %v", sc.Err())
		return ""
	}

	// First tick: the initial snapshot.
	first := readEvent()
	if !strings.HasPrefix(first, "data: ") {
		t.Fatalf("first event %q", first)
	}
	var v1 map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(first, "data: ")), &v1); err != nil {
		t.Fatal(err)
	}
	if v1["phase"] != "p1" {
		t.Fatalf("first snapshot %v", v1)
	}

	// Advance the solve; a later tick must reflect it.
	ptr.Store(&SolveSnapshot{Phase: "p2", Nodes: 500})
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("never saw updated snapshot")
		default:
		}
		ev := readEvent()
		if !strings.HasPrefix(ev, "data: ") {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(ev, "data: ")), &v); err != nil {
			t.Fatal(err)
		}
		if v["phase"] == "p2" {
			// Windowed rate: 499 fresh nodes over a ~60ms window.
			if v["nodes_per_sec"].(float64) <= 0 {
				t.Fatalf("windowed rate not positive: %v", v)
			}
			break
		}
	}

	// Unregister; the stream must close with a done event.
	unregister()
	for {
		ev := readEvent()
		if strings.HasPrefix(ev, "event: done") {
			return
		}
	}
}

func TestSolveWatchErrors(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/debug/solves/no-such/watch"); code != http.StatusNotFound {
		t.Fatalf("watch unknown solve: status %d, want 404", code)
	}

	unregister := RegisterSolve("watch-bad-interval", "cli", "x", testSnap(snapPtr(SolveSnapshot{})))
	defer unregister()
	if code, _ := get(t, srv.URL+"/debug/solves/watch-bad-interval/watch?interval=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad interval status %d, want 400", code)
	}
}

func TestMetricsBuildInfo(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	_, body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, "pdwd_build_info{") {
		t.Fatalf("/metrics missing pdwd_build_info:\n%s", body)
	}
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "pdwd_build_info{") {
			if !strings.Contains(line, `version=`) || !strings.Contains(line, `revision=`) {
				t.Fatalf("build info labels missing: %s", line)
			}
			if !strings.HasSuffix(line, " 1") {
				t.Fatalf("build info value not 1: %s", line)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no pdwd_build_info sample line")
	}
}
