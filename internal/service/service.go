package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"time"

	"pathdriverwash/internal/harness"
	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/obs/reqlog"
	"pathdriverwash/internal/schedule"
	"pathdriverwash/internal/scheduleio"
	"pathdriverwash/internal/solve"
	"pathdriverwash/pkg/pathdriver"
)

// Config tunes a Server. The zero value is a sensible single-machine
// default: GOMAXPROCS workers, a queue of 4x that, shedding at half
// queue depth, a 128-entry cache, and a 30 s default / 2 min maximum
// budget.
type Config struct {
	// Workers caps concurrent exact solves (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker; past it the
	// server answers 429 (0: 4x Workers).
	QueueDepth int
	// ShedWatermark is the queue depth at or above which new solves are
	// shed to the heuristic warm-start with degraded=true (0: half of
	// QueueDepth, at least 1; negative: shedding disabled).
	ShedWatermark int
	// CacheSize bounds the incumbent cache (0: 128; negative: caching
	// and request coalescing disabled). The newest result is always
	// kept; older ones only while requested more often than what would
	// replace them, so while the cache is full of keys requested more
	// often, a key requested once may go uncached (a key requested
	// twice is cached).
	CacheSize int
	// DefaultBudget is applied when a request carries no total budget
	// (0: 30 s).
	DefaultBudget time.Duration
	// MaxBudget clamps requested total budgets (0: 2 min).
	MaxBudget time.Duration
	// ShedBudget bounds a shed heuristic solve (0: 5 s).
	ShedBudget time.Duration
	// Metrics receives the pdwd_* metrics (nil: obs.Default()).
	Metrics *obs.Registry
	// Logger receives structured access and lifecycle logs (nil: no
	// logging).
	Logger *slog.Logger
	// Recorder is the per-request flight recorder (nil: request
	// recording disabled; the request-identity middleware then costs
	// nothing).
	Recorder *reqlog.Recorder
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.ShedWatermark == 0 {
		c.ShedWatermark = max(1, c.QueueDepth/2)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 30 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 2 * time.Minute
	}
	if c.ShedBudget <= 0 {
		c.ShedBudget = 5 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	return c
}

// Result is one answered solve: the wire response plus the in-memory
// schedule (nil on errors), so in-process callers — the soak test, a
// future CLI — can verify or render without re-decoding the document.
type Result struct {
	Resp  *SolveResponse
	Sched *schedule.Schedule
}

// Server is the solve service: admission control over a bounded worker
// pool, the incumbent cache with single-flight coalescing, and load
// shedding to the heuristic warm-start.
type Server struct {
	cfg      Config
	pool     *harness.Pool
	cache    *resultCache // nil when disabled
	log      *slog.Logger
	recorder *reqlog.Recorder

	// solveFn runs one admitted solve; tests swap it for a stub to
	// pin admission and coalescing behavior deterministically.
	solveFn func(context.Context, pathdriver.Request) (*pathdriver.Response, error)

	mQueueDepth *obs.Gauge
	mInflight   *obs.Gauge
	mHits       *obs.Counter
	mMisses     *obs.Counter
	mCoalesced  *obs.Counter
	mShed       *obs.Counter
	mRejected   *obs.Counter
	mSolveSec   *obs.Histogram
	mQueueWait  *obs.Histogram
	mEncodeFail *obs.Counter
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     harness.NewPool(cfg.Workers, cfg.QueueDepth),
		log:      cfg.Logger,
		recorder: cfg.Recorder,
		solveFn:  pathdriver.Solve,

		mQueueDepth: cfg.Metrics.Gauge("pdwd_queue_depth"),
		mInflight:   cfg.Metrics.Gauge("pdwd_inflight"),
		mHits:       cfg.Metrics.Counter("pdwd_cache_hits_total"),
		mMisses:     cfg.Metrics.Counter("pdwd_cache_misses_total"),
		mCoalesced:  cfg.Metrics.Counter("pdwd_coalesced_total"),
		mShed:       cfg.Metrics.Counter("pdwd_shed_total"),
		mRejected:   cfg.Metrics.Counter("pdwd_rejected_total"),
		mSolveSec:   cfg.Metrics.Histogram("pdwd_solve_seconds", nil),
		mQueueWait:  cfg.Metrics.Histogram("pdwd_queue_wait_seconds", nil),
		mEncodeFail: cfg.Metrics.Counter("pdwd_response_encode_failures_total"),
	}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize)
	}
	return s
}

// CodeFor maps a Solve error onto its HTTP status: 429 for a full
// queue, 400 for invalid requests, 422 for infeasible models, 503 for
// budget exhaustion before any usable result, 499 (nginx's
// client-closed-request) for caller cancellation, 500 otherwise.
func CodeFor(err error) int {
	switch {
	case err == nil:
		return 200
	case errors.Is(err, harness.ErrQueueFull):
		return 429
	case errors.Is(err, solve.ErrInvalidAssay):
		return 400
	case errors.Is(err, solve.ErrInfeasible):
		return 422
	case errors.Is(err, solve.ErrBudgetExceeded):
		return 503
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499
	default:
		return 500
	}
}

// clampBudget applies the server's budget policy to a request copy:
// no total budget gets the default, oversized ones are clipped.
func (s *Server) clampBudget(req *SolveRequest) *SolveRequest {
	r := *req
	if r.Options.Budget.Total <= 0 {
		r.Options.Budget.Total = s.cfg.DefaultBudget
	} else if r.Options.Budget.Total > s.cfg.MaxBudget {
		r.Options.Budget.Total = s.cfg.MaxBudget
	}
	return &r
}

// Solve answers one request: from the cache, by coalescing onto an
// identical in-flight solve, shed to the heuristic warm-start when the
// queue is past the watermark, or admitted to the worker pool. The
// returned error maps to HTTP with CodeFor.
//
// When a flight recorder is configured and the context does not
// already carry a request (the HTTP middleware begins one per
// connection), Solve begins and ends its own, so in-process callers —
// the soak test, future CLIs — are recorded too.
func (s *Server) Solve(ctx context.Context, req *SolveRequest) (*Result, error) {
	start := time.Now()
	q := reqlog.FromContext(ctx)
	owned := q == nil && s.recorder != nil
	if owned {
		ctx, q = s.recorder.Begin(ctx, "")
	}
	res, err := s.solve(ctx, req)
	code := CodeFor(err)
	s.cfg.Metrics.Counter("pdwd_requests_total", "code", strconv.Itoa(code)).Inc()
	if code == 429 {
		s.mRejected.Inc()
	}
	obs.RecordSpan(ctx, "pdwd.request", start, time.Since(start),
		obs.A("method", string(req.Method)), obs.A("code", code))
	annotateSolve(q, req, res, err, code)
	if owned {
		q.End()
	}
	if s.log != nil {
		s.log.LogAttrs(ctx, slog.LevelDebug, "solve",
			slog.String("method", string(req.Method)),
			slog.Int("code", code),
			slog.Duration("wall", time.Since(start)),
			slog.String("request_id", q.ID()))
	}
	return res, err
}

// annotateSolve stamps the solve-layer summary onto the request
// record: outcome class, service flags, failure text, and the phase
// timeline. Nil-safe via the reqlog methods.
func annotateSolve(q *reqlog.Request, req *SolveRequest, res *Result, err error, code int) {
	if q == nil {
		return
	}
	var (
		degraded, cached, coalesced, canceled bool
		errText                               string
		phases                                []reqlog.Phase
	)
	if err != nil {
		errText = err.Error()
	} else if res != nil && res.Resp != nil {
		degraded = res.Resp.Degraded
		cached = res.Resp.Cached
		coalesced = res.Resp.Coalesced
		canceled = res.Resp.Canceled
		for _, p := range res.Resp.Stats.PhaseList() {
			phases = append(phases, reqlog.Phase{Name: p.Name, Wall: p.Wall})
		}
	}
	q.SetSolve(string(req.Method), code, degraded, cached, coalesced, canceled, errText, phases)
	q.SetOutcome(outcomeFor(res, err))
}

// outcomeFor maps a solve result onto its flight-recorder outcome
// class (the always-retained classes are exactly the non-boring ones;
// see reqlog's tail-sampling contract).
func outcomeFor(res *Result, err error) reqlog.Outcome {
	switch {
	case errors.Is(err, harness.ErrQueueFull):
		return reqlog.OutcomeRejected
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return reqlog.OutcomeCanceled
	case errors.Is(err, solve.ErrBudgetExceeded):
		return reqlog.OutcomeOverrun
	case err != nil:
		return reqlog.OutcomeError
	case res.Resp.Degraded:
		return reqlog.OutcomeDegraded
	case res.Resp.Canceled:
		return reqlog.OutcomeOverrun
	case res.Resp.Cached:
		return reqlog.OutcomeCached
	case res.Resp.Coalesced:
		return reqlog.OutcomeCoalesced
	default:
		return reqlog.OutcomeOK
	}
}

func (s *Server) solve(ctx context.Context, req *SolveRequest) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	req = s.clampBudget(req)
	reqlog.FromContext(ctx).SetBudget(req.Options.Budget.Total)
	s.mQueueDepth.Set(int64(s.pool.Depth()))

	if s.cache == nil {
		out := s.runLeader(ctx, req)
		return resultOf(out, false, false)
	}

	key := Key(req)
	hit, fl, leader := s.cache.acquire(key)
	switch {
	case hit != nil:
		s.mHits.Inc()
		return resultOf(hit, true, false)
	case leader:
		s.mMisses.Inc()
	default:
		s.mCoalesced.Inc()
		select {
		case <-fl.done:
			return resultOf(fl.res, false, true)
		case <-ctx.Done():
			return nil, fmt.Errorf("service: abandoned while coalesced: %w", ctx.Err())
		}
	}

	// Leader: solve detached from this client's context so a hang-up
	// cannot poison the flight for coalesced followers; the clamped
	// budget bounds the detached work instead.
	go func() {
		out := s.runLeader(context.WithoutCancel(ctx), req)
		keep := out.err == nil && out.resp != nil && !out.resp.Degraded && !out.resp.Canceled
		s.cache.publish(key, fl, out, keep)
	}()
	select {
	case <-fl.done:
		return resultOf(fl.res, false, false)
	case <-ctx.Done():
		return nil, fmt.Errorf("service: abandoned while solving: %w", ctx.Err())
	}
}

// runLeader produces the outcome for one non-cached request: shed past
// the watermark, otherwise admitted to the pool.
func (s *Server) runLeader(ctx context.Context, req *SolveRequest) *outcome {
	if s.cfg.ShedWatermark > 0 && s.pool.Depth() >= s.cfg.ShedWatermark {
		s.mShed.Inc()
		if s.log != nil {
			s.log.LogAttrs(ctx, slog.LevelWarn, "shed",
				slog.Int("queue_depth", s.pool.Depth()),
				slog.Int("watermark", s.cfg.ShedWatermark),
				slog.String("request_id", reqlog.FromContext(ctx).ID()))
		}
		return s.shedSolve(ctx, req)
	}
	var out *outcome
	wait, err := s.pool.DoTimed(ctx, func(ctx context.Context) {
		s.mInflight.Set(int64(s.pool.Running()))
		start := time.Now()
		resp, err := s.runSolve(ctx, req)
		s.mSolveSec.Observe(time.Since(start).Seconds())
		if err != nil {
			out = &outcome{err: err}
			return
		}
		out = &outcome{resp: buildResponse(resp), sched: resp.Schedule}
	})
	s.mQueueWait.Observe(wait.Seconds())
	if wait > 0 {
		// Attribute the admission wait to the request that paid it (a
		// detached leader annotating after its originating record closed
		// is a harmless no-op).
		reqlog.FromContext(ctx).SetQueueWait(wait)
	}
	if err != nil {
		return &outcome{err: err}
	}
	return out
}

// shedSolve is the load-shedding path: the heuristic warm-start (BFS
// wash paths, greedy windows) under the shed budget, bypassing the
// pool entirely — it is two orders of magnitude cheaper than the exact
// pipeline — and flagged degraded so clients can retry later for the
// optimized answer.
func (s *Server) shedSolve(ctx context.Context, req *SolveRequest) *outcome {
	shed := *req
	shed.Options.Heuristic = true
	if shed.Options.Budget.Total <= 0 || shed.Options.Budget.Total > s.cfg.ShedBudget {
		shed.Options.Budget.Total = s.cfg.ShedBudget
	}
	resp, err := s.runSolve(ctx, &shed)
	if err != nil {
		return &outcome{err: err}
	}
	wire := buildResponse(resp)
	wire.Degraded = true
	return &outcome{resp: wire, sched: resp.Schedule}
}

// runSolve invokes the solver with a live progress view attached: for
// the solve's duration it is listed on /debug/solves (keyed by the
// request id when one is in flight, so an operator can go from a slow
// request straight to its live nodes/gap), and the final
// snapshot is stamped onto the flight-recorder record when it closes.
func (s *Server) runSolve(ctx context.Context, req *SolveRequest) (*pathdriver.Response, error) {
	prog := solve.NewProgress()
	ctx = solve.WithProgress(ctx, prog)
	q := reqlog.FromContext(ctx)
	unregister := obs.RegisterSolve(q.ID(), "request", string(req.Method), prog.Snapshot)
	defer unregister()
	resp, err := s.solveFn(ctx, req.request())
	q.SetProgress(prog.Snapshot())
	return resp, err
}

// buildResponse lowers a library response onto the wire shape.
func buildResponse(r *pathdriver.Response) *SolveResponse {
	doc := scheduleio.ToDocument(r.Schedule)
	return &SolveResponse{
		Schema:         SchemaV1,
		Method:         r.Method,
		Canceled:       r.Stats != nil && r.Stats.Canceled,
		NWash:          r.Metrics.NWash,
		LWashMM:        r.Metrics.LWashMM,
		TAssayS:        r.Metrics.TAssay,
		TDelayS:        r.Metrics.TDelay,
		Objective:      r.Objective,
		WindowsOptimal: r.WindowsOptimal,
		Rounds:         r.Rounds,
		Stats:          r.Stats,
		Schedule:       &doc,
	}
}

// resultOf turns a published outcome into a caller-owned Result,
// stamping the per-request cache flags on a copy of the shared
// response template.
func resultOf(out *outcome, cached, coalesced bool) (*Result, error) {
	if out.err != nil {
		return nil, out.err
	}
	resp := *out.resp
	resp.Cached = cached
	resp.Coalesced = coalesced
	return &Result{Resp: &resp, Sched: out.sched}, nil
}

// Stats reports the server's live admission state.
func (s *Server) Stats() (queued, running, cached int) {
	cachedN := 0
	if s.cache != nil {
		cachedN = s.cache.Len()
	}
	return s.pool.Depth(), s.pool.Running(), cachedN
}
