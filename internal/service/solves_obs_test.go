package service

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/obs/prof"
	"pathdriverwash/internal/obs/reqlog"
	"pathdriverwash/internal/solve"
	"pathdriverwash/pkg/pathdriver"
)

// TestSolveVisibleOnDebugSolves pins the live-introspection contract:
// while a request's solve runs, it is listed on /debug/solves under the
// request id with the counters its Progress publishes; once it returns,
// it leaves the listing and its final snapshot lands on the
// flight-recorder record.
func TestSolveVisibleOnDebugSolves(t *testing.T) {
	rec := reqlog.NewRecorder(reqlog.Config{Depth: 64, SampleEvery: 1})
	defer rec.Close()
	s := newTestServer(Config{Recorder: rec, CacheSize: -1})

	release := make(chan struct{})
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		prog := solve.ProgressFromContext(ctx)
		if prog == nil {
			t.Error("solveFn context carries no progress view")
			return stubResponse(req.Method), nil
		}
		prog.SetPhase("wash-path-ilp")
		prog.AddNodes(1234)
		prog.AddPruned(9999)
		<-release
		return stubResponse(req.Method), nil
	}

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	idc := make(chan string, 1)
	go func() {
		ctx, q := rec.Begin(context.Background(), "")
		idc <- q.ID()
		_, err := s.Solve(ctx, motivatingReq(t, pathdriver.MethodPDW, pathdriver.Options{}))
		q.End()
		done <- err
	}()
	reqID := <-idc

	// The in-flight solve must appear under the request id.
	var view map[string]any
	waitFor(t, "solve on /debug/solves", func() bool {
		resp, err := http.Get(srv.URL + "/debug/solves/" + reqID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		view = nil
		return json.NewDecoder(resp.Body).Decode(&view) == nil && view["nodes"].(float64) == 1234
	})
	if view["kind"] != "request" || view["label"] != "pdw" {
		t.Fatalf("solve view identity: %v", view)
	}
	if view["phase"] != "wash-path-ilp" || view["pruned"].(float64) != 9999 {
		t.Fatalf("solve view counters: %v", view)
	}
	if view["nodes_per_sec"].(float64) <= 0 {
		t.Fatalf("no live node rate: %v", view)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Unregistered after completion...
	waitFor(t, "solve to leave /debug/solves", func() bool {
		resp, err := http.Get(srv.URL + "/debug/solves/" + reqID)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusNotFound
	})

	// ...and the record carries the final snapshot.
	record, ok := rec.Find(reqID)
	if !ok {
		t.Fatal("request not in flight recorder")
	}
	if record.Progress == nil || record.Progress.Nodes != 1234 || record.Progress.Pruned != 9999 {
		t.Fatalf("record progress: %+v", record.Progress)
	}
}

// TestShedSolveAlsoRegisters covers the load-shedding path: shed solves
// bypass the pool but still get a progress view and registry entry.
func TestShedSolveAlsoRegisters(t *testing.T) {
	s := newTestServer(Config{CacheSize: -1})
	sawProgress := make(chan bool, 1)
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		sawProgress <- solve.ProgressFromContext(ctx) != nil
		return stubResponse(req.Method), nil
	}
	out := s.shedSolve(context.Background(), motivatingReq(t, "", pathdriver.Options{}))
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !<-sawProgress {
		t.Fatal("shed solve ran without a progress view")
	}
}

// TestOverrunTriggersProfile is the anomaly-to-evidence acceptance
// test: a budget-overrun solve completes, the flight recorder trips the
// profiling engine, the record links the capture, and the served bytes
// are a valid gzipped pprof CPU profile.
func TestOverrunTriggersProfile(t *testing.T) {
	engine := prof.New(prof.Config{CPUDuration: 50 * time.Millisecond, Cooldown: -1})
	rec := reqlog.NewRecorder(reqlog.Config{Depth: 64, SampleEvery: 1, Trigger: engine})
	defer rec.Close()
	s := newTestServer(Config{Recorder: rec, CacheSize: -1})
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		resp := stubResponse(req.Method)
		st := &solve.Stats{}
		st.MarkCanceled() // budget expired, degraded to incumbents
		resp.Stats = st
		return resp, nil
	}

	ctx, q := rec.Begin(context.Background(), "")
	res, err := s.Solve(ctx, motivatingReq(t, "", pathdriver.Options{}))
	q.End()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resp.Canceled {
		t.Fatal("stub did not mark the response canceled")
	}

	record, ok := rec.Find(q.ID())
	if !ok {
		t.Fatal("request not retained")
	}
	if record.Outcome != reqlog.OutcomeOverrun {
		t.Fatalf("outcome %q, want overrun", record.Outcome)
	}
	if record.ProfileID == "" {
		t.Fatal("overrun record carries no profile_id")
	}

	// The capture completes and serves pprof bytes.
	srv := httptest.NewServer(engine.Handler())
	defer srv.Close()
	var body []byte
	waitFor(t, "profile capture to complete", func() bool {
		resp, err := http.Get(srv.URL + "/debug/profiles/" + record.ProfileID + "?kind=cpu")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return false
		}
		body, err = io.ReadAll(resp.Body)
		return err == nil
	})
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("profile is not gzipped (%d bytes)", len(body))
	}
	zr, err := gzip.NewReader(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("profile decompress: %d bytes, %v", len(raw), err)
	}
}
