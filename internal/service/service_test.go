package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathdriverwash/internal/assay"
	"pathdriverwash/internal/grid"
	"pathdriverwash/internal/harness"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/pkg/pathdriver"
)

// newTestServer builds a server with its own metrics registry so
// counters are assertable per test.
func newTestServer(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return New(cfg)
}

// stubResponse is a minimal well-formed library response for solveFn
// stubs: a real (empty) schedule so the wire document builds.
func stubResponse(method pathdriver.Method) *pathdriver.Response {
	if method == "" {
		method = pathdriver.MethodPDW
	}
	s := schedule.New(grid.NewChip("stub", 4, 4), assay.New("stub"))
	return &pathdriver.Response{Method: method, Schedule: s, Washes: 1}
}

// motivatingReq wraps the paper's running example as a wire request.
func motivatingReq(t testing.TB, method pathdriver.Method, opts pathdriver.Options) *SolveRequest {
	t.Helper()
	a, _, err := pathdriver.MotivatingExample()
	if err != nil {
		t.Fatal(err)
	}
	return &SolveRequest{
		Method:  method,
		Assay:   pathdriver.NewAssayDocument(a, pathdriver.SynthConfig{}),
		Options: opts,
	}
}

// uniqueReq returns a request whose cache key differs per call.
func uniqueReq(t testing.TB, n int) *SolveRequest {
	t.Helper()
	r := motivatingReq(t, "", pathdriver.Options{})
	r.Options.Weights.Alpha = 0.001 * float64(n+1)
	return r
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheHitAndMiss(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		calls.Add(1)
		return stubResponse(req.Method), nil
	}

	req := motivatingReq(t, "", pathdriver.Options{})
	first, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Resp.Cached {
		t.Fatal("first solve must be a miss")
	}
	second, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Resp.Cached {
		t.Fatal("identical request must hit the cache")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}

	// A different budget is the same cache entry; different weights are
	// a new solve.
	budgeted := *req
	budgeted.Options.Budget.Total = time.Minute
	res, err := s.Solve(context.Background(), &budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resp.Cached {
		t.Fatal("budget-only change must still hit the cache")
	}
	if _, err := s.Solve(context.Background(), uniqueReq(t, 7)); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("solver ran %d times, want 2", got)
	}
	if s.mHits.Value() != 2 || s.mMisses.Value() != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", s.mHits.Value(), s.mMisses.Value())
	}
}

func TestCoalescing(t *testing.T) {
	s := newTestServer(Config{Workers: 4, ShedWatermark: -1})
	release := make(chan struct{})
	var calls atomic.Int64
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		calls.Add(1)
		<-release
		return stubResponse(req.Method), nil
	}

	req := motivatingReq(t, "", pathdriver.Options{})
	const n = 10
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Solve(context.Background(), req)
		}()
	}
	waitFor(t, "leader to start", func() bool { return calls.Load() == 1 })
	waitFor(t, "followers to coalesce", func() bool { return s.mCoalesced.Value() == n-1 })
	close(release)
	wg.Wait()

	coalesced := 0
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Resp.Coalesced {
			coalesced++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("identical concurrent requests ran the solver %d times, want exactly 1", got)
	}
	if coalesced != n-1 {
		t.Fatalf("%d coalesced responses, want %d", coalesced, n-1)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(Config{Workers: 1, QueueDepth: 1, ShedWatermark: -1, CacheSize: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		started <- struct{}{}
		<-release
		return stubResponse(req.Method), nil
	}

	var wg sync.WaitGroup
	defer wg.Wait()      // after release: workers drain and exit
	defer close(release) // runs first (LIFO)
	for i := range 2 {   // one running, one queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Solve(context.Background(), uniqueReq(t, i)); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started
	waitFor(t, "queue to fill", func() bool { return s.pool.Depth() == 1 })

	_, err := s.Solve(context.Background(), uniqueReq(t, 99))
	if !errors.Is(err, harness.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if CodeFor(err) != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", CodeFor(err))
	}
	if s.mRejected.Value() != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.mRejected.Value())
	}
}

func TestShedToWarmStart(t *testing.T) {
	s := newTestServer(Config{Workers: 1, QueueDepth: 4, ShedWatermark: 1, CacheSize: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		if req.Options.Heuristic { // the shed path runs inline
			return stubResponse(req.Method), nil
		}
		started <- struct{}{}
		<-release
		return stubResponse(req.Method), nil
	}

	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	for i := range 2 { // fill the worker, then the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Solve(context.Background(), uniqueReq(t, i)); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started
	waitFor(t, "queue at watermark", func() bool { return s.pool.Depth() >= 1 })

	res, err := s.Solve(context.Background(), uniqueReq(t, 99))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resp.Degraded {
		t.Fatal("solve past the watermark must be shed with degraded=true")
	}
	if s.mShed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.mShed.Value())
	}
}

// TestShedSolveIsClean runs the real heuristic warm-start the shed
// path serves and verifies its output quality: contamination-free and
// flagged degraded.
func TestShedSolveIsClean(t *testing.T) {
	s := newTestServer(Config{})
	out := s.shedSolve(context.Background(), motivatingReq(t, "", pathdriver.Options{}))
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.resp.Degraded {
		t.Fatal("shed response must be degraded")
	}
	if err := pathdriver.VerifyClean(out.sched); err != nil {
		t.Fatalf("shed schedule is contaminated: %v", err)
	}
	if out.resp.NWash == 0 || out.resp.NWash != len(washTasks(out.sched)) {
		t.Fatalf("n_wash=%d, schedule has %d washes", out.resp.NWash, len(washTasks(out.sched)))
	}
}

func washTasks(s *schedule.Schedule) []*schedule.Task {
	var ws []*schedule.Task
	for _, task := range s.SortedByStart() {
		if task.Kind.String() == "wash" {
			ws = append(ws, task)
		}
	}
	return ws
}

// TestDegradedNotCached pins the cache-fidelity rule: shed results are
// published to coalesced waiters but never committed.
func TestDegradedNotCached(t *testing.T) {
	s := newTestServer(Config{Workers: 1, QueueDepth: 4, ShedWatermark: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	var heuristicCalls atomic.Int64
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		if req.Options.Heuristic {
			heuristicCalls.Add(1)
			return stubResponse(req.Method), nil
		}
		started <- struct{}{}
		<-release
		return stubResponse(req.Method), nil
	}

	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Solve(context.Background(), uniqueReq(t, i)); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started
	waitFor(t, "queue at watermark", func() bool { return s.pool.Depth() >= 1 })

	shedReq := uniqueReq(t, 99)
	res, err := s.Solve(context.Background(), shedReq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resp.Degraded {
		t.Fatal("expected a shed response")
	}
	close(release)
	wg.Wait()

	// The pressure is gone; the same request must now solve for real.
	res, err = s.Solve(context.Background(), shedReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.Cached || res.Resp.Degraded {
		t.Fatalf("degraded result leaked into the cache: %+v", res.Resp)
	}
}

func TestBudgetClamp(t *testing.T) {
	s := newTestServer(Config{DefaultBudget: 7 * time.Second, MaxBudget: 10 * time.Second})
	var got atomic.Int64
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		got.Store(int64(req.Options.Budget.Total))
		return stubResponse(req.Method), nil
	}

	if _, err := s.Solve(context.Background(), uniqueReq(t, 0)); err != nil {
		t.Fatal(err)
	}
	if time.Duration(got.Load()) != 7*time.Second {
		t.Fatalf("default budget not applied: %v", time.Duration(got.Load()))
	}
	over := uniqueReq(t, 1)
	over.Options.Budget.Total = time.Hour
	if _, err := s.Solve(context.Background(), over); err != nil {
		t.Fatal(err)
	}
	if time.Duration(got.Load()) != 10*time.Second {
		t.Fatalf("oversized budget not clamped: %v", time.Duration(got.Load()))
	}
}

func TestHTTPSolve(t *testing.T) {
	srv := httptest.NewServer(newTestServer(Config{}).Handler())
	defer srv.Close()

	req := motivatingReq(t, "", pathdriver.Options{Heuristic: true})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Bodies are compact: one line, newline-terminated.
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 1 || raw[len(raw)-1] != '\n' {
		t.Fatalf("solve body has %d newlines, want one line: %.200q", n, raw)
	}
	var out SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != SchemaV1 || out.NWash == 0 || out.Schedule == nil {
		t.Fatalf("response %+v", out)
	}
	if out.Error != "" {
		t.Fatalf("unexpected error: %s", out.Error)
	}

	// Malformed and invalid bodies answer 400 with a JSON error.
	for _, bad := range []string{`{"bogus": 1}`, `not json`, `{"schema": "pdw.v9", "assay": {"name": "x"}, "options": {}}`} {
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var out SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || out.Error == "" {
			t.Fatalf("bad body %q: status %d, error %q", bad, resp.StatusCode, out.Error)
		}
	}

	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", health.StatusCode)
	}
}

func TestHTTPQueueFull(t *testing.T) {
	s := newTestServer(Config{Workers: 1, QueueDepth: 1, ShedWatermark: -1, CacheSize: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		started <- struct{}{}
		<-release
		return stubResponse(req.Method), nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(i int) (*http.Response, error) {
		body, err := json.Marshal(uniqueReq(t, i))
		if err != nil {
			return nil, err
		}
		return http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(string(body)))
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := post(i)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-started
	waitFor(t, "queue to fill", func() bool { return s.pool.Depth() == 1 })

	resp, err := post(99)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

// TestAbandonedLeaderStillFeedsFollowers pins the detached-leader
// contract: a leader whose client hangs up does not poison the flight
// for coalesced followers.
func TestAbandonedLeaderStillFeedsFollowers(t *testing.T) {
	s := newTestServer(Config{Workers: 2, ShedWatermark: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.solveFn = func(ctx context.Context, req pathdriver.Request) (*pathdriver.Response, error) {
		started <- struct{}{}
		<-release
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("leader context poisoned: %w", err)
		}
		return stubResponse(req.Method), nil
	}

	req := motivatingReq(t, "", pathdriver.Options{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Solve(leaderCtx, req)
		leaderErr <- err
	}()
	<-started

	followerRes := make(chan *Result, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := s.Solve(context.Background(), req)
		followerRes <- res
		followerErr <- err
	}()
	waitFor(t, "follower to coalesce", func() bool { return s.mCoalesced.Value() == 1 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned leader returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower failed after leader hang-up: %v", err)
	}
	res := <-followerRes
	if !res.Resp.Coalesced {
		t.Fatal("follower must report coalesced")
	}
}
