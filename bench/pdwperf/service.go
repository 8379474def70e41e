package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/service"
	"pathdriverwash/pkg/pathdriver"
)

// service-mix traffic. The reader is an open loop of cache-hot requests
// at a fixed rate; the writer is a closed loop of requests with keys
// never seen before. Two connections, one per loop, match the two
// cores the benchmark was sized on.
const (
	readerRate = 60 // hot requests per second
	// rejoinFrac of the reader's slots instead repeat the writer's
	// in-flight request, which should coalesce onto it.
	rejoinFrac = 0.01
	// rejoinAfter is how long the writer's request must have been
	// in flight before the reader repeats it, so the server has
	// registered it and the repeat joins rather than leads.
	rejoinAfter = 20 * time.Millisecond
)

// coldAssays are the writer's rotation: cheap to solve, so the run
// holds many rotations.
var coldAssays = []string{"PCR", "Kinase act-1", "Synthetic1"}

// hotKeys are the reader's working set: 8 keys, far below the server's
// 128-entry cache, so every hot request is a hit that exercises decode,
// key, LRU and encode while a cold solve holds a core.
var hotKeys = []struct {
	assay   string
	method  pathdriver.Method
	weights pathdriver.Weights
}{
	{"PCR", pathdriver.MethodPDW, pathdriver.Weights{}},
	{"Kinase act-1", pathdriver.MethodPDW, pathdriver.Weights{}},
	{"Synthetic1", pathdriver.MethodPDW, pathdriver.Weights{}},
	{"PCR", pathdriver.MethodDAWO, pathdriver.Weights{}},
	{"Kinase act-1", pathdriver.MethodDAWO, pathdriver.Weights{}},
	{"Synthetic1", pathdriver.MethodDAWO, pathdriver.Weights{}},
	{"PCR", pathdriver.MethodPDW, pathdriver.Weights{Alpha: 0.5, Beta: 0.25, Gamma: 0.25}},
	{"Kinase act-1", pathdriver.MethodPDW, pathdriver.Weights{Alpha: 0.5, Beta: 0.25, Gamma: 0.25}},
}

// solveMetrics are the paper's quantities a response carries.
type solveMetrics struct {
	NWash   int     `json:"n_wash"`
	LWashMM float64 `json:"l_wash_mm"`
	TAssayS int     `json:"t_assay_s"`
}

// quality is Eq. 26 with the default weights, as the library
// workloads report it.
func (m solveMetrics) quality() quality {
	return quality{
		objective: 0.3*float64(m.NWash) + 0.3*m.LWashMM + 0.4*float64(m.TAssayS),
		nWash:     m.NWash, lWashMM: m.LWashMM, tAssayS: m.TAssayS,
	}
}

// wireResponse is the part of a pdwd response the benchmark checks.
type wireResponse struct {
	solveMetrics
	Degraded  bool   `json:"degraded"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Canceled  bool   `json:"canceled"`
	Rounds    int    `json:"rounds"`
	Error     string `json:"error"`
}

// coldResponse adds the solve telemetry, read only from cold responses.
type coldResponse struct {
	wireResponse
	Stats *pathdriver.SolveStats `json:"stats"`
}

func requestBody(docs map[string]pathdriver.AssayDocument, assay string, m pathdriver.Method, opts pathdriver.Options) ([]byte, error) {
	return json.Marshal(service.SolveRequest{Schema: service.SchemaV1, Method: m, Assay: docs[assay], Options: opts})
}

// conn is one HTTP connection to the server.
type conn struct {
	base   string
	client *http.Client
}

func newConn(addr string) *conn {
	return &conn{
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Minute,
		},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *conn) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (c *conn) scrape(ctx context.Context) (promSamples, error) {
	code, raw, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", code)
	}
	return parseProm(bytes.NewReader(raw))
}

// decodeAnswer parses a solve response and rejects errors, shed
// (degraded) and budget-canceled answers, none of which can happen on
// this traffic unless something is wrong.
func decodeAnswer(code int, raw []byte, err error, into any, base *wireResponse) error {
	if err != nil {
		return err
	}
	if jerr := json.Unmarshal(raw, into); jerr != nil {
		return fmt.Errorf("status %d, undecodable body: %w", code, jerr)
	}
	switch {
	case code != http.StatusOK:
		return fmt.Errorf("status %d: %s", code, base.Error)
	case base.Degraded:
		return errors.New("shed to the heuristic (degraded)")
	case base.Canceled:
		return errors.New("budget canceled the solve")
	}
	return nil
}

// inflight is the writer's request on the wire, for the reader to
// repeat.
type inflight struct {
	body  []byte
	assay string
	wrote time.Time
}

// svcRun is the state of one service-mix measurement.
type svcRun struct {
	cfg   config
	tr    *tracer
	refs  map[string]solveMetrics // in-process reference per cold assay
	hot   [][]byte
	want  []solveMetrics // each hot key's first answer
	docs  map[string]pathdriver.AssayDocument
	cur   atomic.Pointer[inflight]
	start time.Time
	end   time.Time

	mu      sync.Mutex
	rep     *report
	hotLat  []float64 // ms from due time; failures +Inf
	hotKB   []float64
	rejoins int
	lateMax time.Duration

	coldLat   []float64
	rotations []float64
	rotQ      []quality
	layers    layers
	pdwPhases []float64 // ms of recorded phases per cold answer
}

func (s *svcRun) fail(err error) {
	s.mu.Lock()
	s.rep.fail(err)
	s.mu.Unlock()
}

func runService(ctx context.Context, cfg config) (*report, error) {
	s := &svcRun{cfg: cfg, rep: &report{}, refs: map[string]solveMetrics{}, docs: map[string]pathdriver.AssayDocument{}}
	for _, name := range coldAssays {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return nil, err
		}
		if err := checkPinned([]*benchmarks.Benchmark{b}); err != nil {
			return nil, err
		}
		s.docs[name] = pathdriver.NewAssayDocument(b.Assay, b.Config)
	}
	// Cold answers are checked against the library's own answer.
	for _, name := range coldAssays {
		resp, err := pathdriver.Solve(ctx, pathdriver.Request{Assay: s.docs[name], Options: pathdriver.Options{Heuristic: true}})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		s.refs[name] = solveMetrics{resp.Metrics.NWash, resp.Metrics.LWashMM, resp.Metrics.TAssay}
	}
	for _, k := range hotKeys {
		body, err := requestBody(s.docs, k.assay, k.method, pathdriver.Options{Heuristic: true, Weights: k.weights})
		if err != nil {
			return nil, err
		}
		s.hot = append(s.hot, body)
	}

	// Setup: start the server and warm the hot keys, cfg.setups times;
	// the last server is the one measured.
	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(cfg.pdwd); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := s.warm(ctx, srv.addr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	reader, writer := newConn(srv.addr), newConn(srv.addr)
	defer reader.close()
	defer writer.close()
	pid := srv.cmd.Process.Pid
	m0, err := writer.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	if cfg.tracePath != "" {
		s.tr = &tracer{}
	}
	s.start = time.Now()
	s.end = s.start.Add(cfg.seconds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.read(ctx, reader) }()
	go func() { defer wg.Done(); s.write(ctx, writer) }()
	wg.Wait()
	measured := time.Since(s.start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m1, err := writer.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	if len(s.rotations) == 0 {
		return nil, errors.New("the writer completed no rotation")
	}

	rep := s.rep
	rep.attempted = len(s.hotLat) + s.rejoins + len(s.coldLat)
	tail := tailPercentile(len(s.hotLat))
	rep.note("hot n=%d p50=%.3fms p90=%.3fms p%g=%.3fms; rejoins=%d; late max=%.3fms",
		len(s.hotLat), percentile(s.hotLat, 50), percentile(s.hotLat, 90), tail, percentile(s.hotLat, tail),
		s.rejoins, ms(s.lateMax))
	rep.note("cold n=%d p50=%.3fms p90=%.3fms; rotations=%d, median %.4fs", len(s.coldLat),
		percentile(s.coldLat, 50), percentile(s.coldLat, 90), len(s.rotations), median(s.rotations))
	rep.note("setup_s over %d setups: %v", len(setups), setups)
	rep.note("t_assay_s_sum=%d (median rotation)", medianQuality(s.rotQ).tAssayS)

	if cfg.tracePath == "" {
		q := medianQuality(s.rotQ)
		rep.set("setup_s", median(setups))
		rep.set("pass_s", median(s.rotations))
		rep.set("op_ms.p50", percentile(s.hotLat, 50))
		rep.set("op_ms.tail", percentile(s.hotLat, tail))
		rep.set("peak_rss_mb", rss)
		rep.set("objective_sum", q.objective)
		rep.set("n_wash_sum", float64(q.nWash))
		rep.set("l_wash_mm_sum", q.lWashMM)
		return rep, nil
	}

	for name, v := range s.layers.perLayer(len(s.rotations)) {
		rep.set(name, v)
	}
	// The server does synthesis and its own bookkeeping out of the
	// benchmark's sight; they show in presolve and overhead below.
	for _, name := range []string{"synth.s", "dawo.s", "pdw.optimize_self_s", "go.alloc_mb", "go.gc_cpu_frac"} {
		rep.set(name, 0)
	}
	d := func(name string) float64 { return m1.sum(name) - m0.sum(name) }
	solveMS := 1000 * ratio(d("pdwd_solve_seconds_sum"), d("pdwd_solve_seconds_count"))
	pdwMS := mean(s.pdwPhases)
	rep.set("service.hit_ratio", ratio(d("pdwd_cache_hits_total"),
		d("pdwd_cache_hits_total")+d("pdwd_cache_misses_total")+d("pdwd_coalesced_total")))
	rep.set("service.response_kb.mean", mean(s.hotKB))
	rep.set("service.cpu_ms_per_req", 1000*ratio(cpu1-cpu0, float64(rep.attempted)))
	rep.set("service.solve_ms.mean", solveMS)
	rep.set("service.presolve_ms.mean", solveMS-pdwMS)
	rep.set("service.pdw_ms.mean", pdwMS)
	rep.set("service.overhead_ms.mean", mean(s.coldLat)-solveMS)
	rep.set("service.queue_wait_ms.mean", 1000*ratio(d("pdwd_queue_wait_seconds_sum"), d("pdwd_queue_wait_seconds_count")))
	rep.set("service.coalesced", d("pdwd_coalesced_total"))
	rep.set("service.shed", d("pdwd_shed_total"))
	rep.set("service.rejected", d("pdwd_rejected_total"))
	rep.set("service.late_ms.max", ms(s.lateMax))
	rep.set("trace.overhead_frac", ratio(s.tr.overhead().Seconds(), measured.Seconds()))
	return rep, s.tr.write(cfg.tracePath)
}

// warm sends every hot key once, in order, and keeps each answer as the
// one later hits must repeat.
func (s *svcRun) warm(ctx context.Context, addr string) error {
	c := newConn(addr)
	defer c.close()
	s.want = s.want[:0]
	for i, body := range s.hot {
		var r wireResponse
		code, raw, err := c.do(ctx, http.MethodPost, "/v1/solve", body)
		if err := decodeAnswer(code, raw, err, &r, &r); err != nil {
			return fmt.Errorf("warm hot key %d: %w", i, err)
		}
		if r.Cached || r.Coalesced {
			return fmt.Errorf("warm hot key %d: answered from the cache of a fresh server", i)
		}
		s.want = append(s.want, r.solveMetrics)
	}
	return nil
}

// read is the reader loop: one request per 1/readerRate seconds, timed
// from when it was due, so a stall counts against every request it
// delays. A rejoin waits on a cold solve by design; the schedule
// restarts when it returns, so hot latency measures the server, not
// the reader's own head-of-line wait.
func (s *svcRun) read(ctx context.Context, c *conn) {
	rng := rand.New(rand.NewSource(s.cfg.seed))
	interval := time.Second / readerRate
	root := s.tr.reserve()
	defer s.tr.finish(root, "reader", 0, 0, s.start)
	for due := s.start; due.Before(s.end); {
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		rejoinDraw, key := rng.Float64(), rng.Intn(len(s.hot))
		f := s.cur.Load()
		rejoin := rejoinDraw < rejoinFrac && f != nil && time.Since(f.wrote) >= rejoinAfter
		body, class := s.hot[key], "hot"
		if rejoin {
			body, class = f.body, "rejoin"
		}
		sent := time.Now()
		code, raw, err := c.do(ctx, http.MethodPost, "/v1/solve", body)
		lat := ms(time.Since(due))
		s.tr.span("request", root, root, sent, time.Since(sent),
			obs.A("class", class), obs.A("status", code), obs.A("bytes", len(raw)))
		var r wireResponse
		err = decodeAnswer(code, raw, err, &r, &r)
		switch {
		case err != nil:
		case rejoin && !r.Cached && !r.Coalesced:
			err = errors.New("neither coalesced nor cached")
		case rejoin && r.solveMetrics != s.refs[f.assay]:
			err = fmt.Errorf("answer %+v, reference %+v", r.solveMetrics, s.refs[f.assay])
		case !rejoin && !r.Cached:
			err = errors.New("not answered from the cache")
		case !rejoin && r.solveMetrics != s.want[key]:
			err = fmt.Errorf("answer %+v, first answer %+v", r.solveMetrics, s.want[key])
		}
		s.mu.Lock()
		if err != nil {
			s.rep.fail(fmt.Errorf("%s request: %w", class, err))
			lat = math.Inf(1)
		}
		if rejoin {
			s.rejoins++
			due = time.Now()
		} else {
			s.hotLat = append(s.hotLat, lat)
			s.hotKB = append(s.hotKB, float64(len(raw))/1024)
			s.lateMax = max(s.lateMax, sent.Sub(due))
			due = due.Add(interval)
		}
		s.mu.Unlock()
	}
}

// write is the writer loop: rotations over coldAssays, each request
// made unique by a small change of Weights.Alpha, so every one misses
// the cache and pays synthesis, reference compression and the
// heuristic optimizer. It starts a rotation only inside the window and
// always completes it.
func (s *svcRun) write(ctx context.Context, c *conn) {
	root := s.tr.reserve()
	defer s.tr.finish(root, "writer", 0, 0, s.start)
	first := int(s.cfg.seed % int64(len(coldAssays)))
	k := 0
	for time.Now().Before(s.end) {
		rotStart := time.Now()
		var q quality
		ok := true
		for j := range coldAssays {
			if ctx.Err() != nil {
				return
			}
			assay := coldAssays[(first+j)%len(coldAssays)]
			k++
			opts := pathdriver.Options{Heuristic: true, Weights: pathdriver.Weights{Alpha: 0.3 + 1e-7*float64(k), Beta: 0.3, Gamma: 0.4}}
			body, err := requestBody(s.docs, assay, pathdriver.MethodPDW, opts)
			if err != nil {
				s.fail(err)
				return
			}
			trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) {
				s.cur.Store(&inflight{body: body, assay: assay, wrote: time.Now()})
			}}
			sent := time.Now()
			code, raw, err := c.do(httptrace.WithClientTrace(ctx, trace), http.MethodPost, "/v1/solve", body)
			s.cur.Store(nil)
			lat := time.Since(sent)
			s.tr.span("request", root, root, sent, lat,
				obs.A("class", "cold"), obs.A("assay", assay), obs.A("status", code), obs.A("bytes", len(raw)))
			var r coldResponse
			err = decodeAnswer(code, raw, err, &r, &r.wireResponse)
			switch {
			case err != nil:
			case r.Cached || r.Coalesced:
				err = errors.New("a unique key was answered from another request")
			case r.solveMetrics != s.refs[assay]:
				err = fmt.Errorf("answer %+v, reference %+v", r.solveMetrics, s.refs[assay])
			}
			s.mu.Lock()
			if err != nil {
				s.rep.fail(fmt.Errorf("cold %s request: %w", assay, err))
				s.coldLat = append(s.coldLat, math.Inf(1))
				ok = false
			} else {
				s.coldLat = append(s.coldLat, ms(lat))
				s.layers.addStats(r.Stats, r.Rounds)
				var phases time.Duration
				for _, p := range r.Stats.PhaseList() {
					phases += p.Wall
				}
				s.pdwPhases = append(s.pdwPhases, ms(phases))
				q.add(r.solveMetrics.quality())
			}
			s.mu.Unlock()
		}
		if ok {
			s.mu.Lock()
			s.rotations = append(s.rotations, time.Since(rotStart).Seconds())
			s.rotQ = append(s.rotQ, q)
			s.mu.Unlock()
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
