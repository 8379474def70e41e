package service

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"pathdriverwash/internal/obs/reqlog"
)

// Handler returns the service's HTTP surface:
//
//	POST /v1/solve   — one SolveRequest in, one SolveResponse out
//	GET  /healthz    — liveness, build info, live admission counters
//
// wrapped in the request-identity middleware: when a flight recorder
// or logger is configured, every request gets a W3C trace context
// (continuing an incoming `traceparent` header or minting one) and a
// request id, both echoed in response headers (`Traceparent`,
// `X-Request-Id`) and attached to the context for span, record, and
// log attribution.
//
// Observability endpoints (/metrics, /debug/...) are not mounted here;
// cmd/pdwd wraps this handler with obs.WithDebug (which also carries
// the recorder's /debug/requests endpoints once installed).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(mux)
}

// statusWriter captures the status code and body size the middleware
// logs and records.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// instrument is the request-identity middleware. With neither a
// recorder nor a logger configured it returns next untouched — the
// disabled path adds zero handlers and zero allocations.
func (s *Server) instrument(next http.Handler) http.Handler {
	if s.recorder == nil && s.log == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		var q *reqlog.Request
		if s.recorder != nil {
			ctx, q = s.recorder.Begin(ctx, r.Header.Get("traceparent"))
			w.Header().Set("Traceparent", q.Trace().String())
			w.Header().Set("X-Request-Id", q.ID())
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		wall := time.Since(start)
		q.SetHTTP(r.Method, r.URL.Path, sw.code)
		q.End()
		if s.log != nil {
			lvl := slog.LevelInfo
			switch {
			case sw.code >= 500:
				lvl = slog.LevelError
			case sw.code >= 400:
				lvl = slog.LevelWarn
			}
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Duration("wall", wall),
				slog.Int64("bytes", sw.bytes),
			}
			if q != nil {
				attrs = append(attrs,
					slog.String("request_id", q.ID()),
					slog.String("trace_id", q.Trace().TraceIDString()),
					slog.String("outcome", string(q.Outcome())))
			}
			s.log.LogAttrs(ctx, lvl, "request", attrs...)
		}
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.Solve(r.Context(), req)
	if err != nil {
		code := CodeFor(err)
		if code == http.StatusTooManyRequests {
			// The queue drains at solve speed; a second is long enough
			// for several heuristic solves and short enough to retry an
			// exact one promptly.
			w.Header().Set("Retry-After", "1")
		}
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res.Resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running, cached := s.Stats()
	body := map[string]any{
		"status": "ok",
		"schema": SchemaV1,
		"queued": queued, "running": running, "cached": cached,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		build := map[string]any{
			"go":      bi.GoVersion,
			"module":  bi.Main.Path,
			"version": bi.Main.Version,
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				build["revision"] = kv.Value
			case "vcs.time":
				build["vcs_time"] = kv.Value
			case "vcs.modified":
				build["dirty"] = kv.Value == "true"
			}
		}
		body["build"] = build
	}
	if s.recorder != nil {
		body["requests"] = map[string]any{
			"depth": s.recorder.Cap(),
			"kept":  s.recorder.Len(),
			"total": s.recorder.Total(),
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	if code == 499 { // non-standard; the client is gone anyway
		// Remap to 503 and, like the 429 path, invite a prompt retry:
		// the server is healthy, the request just has to come back.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, code, &SolveResponse{Schema: SchemaV1, Error: err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Once the status line is written a failed encode (client gone,
		// broken pipe) has no recovery; count it so a storm of broken
		// pipes stays visible on /metrics.
		s.mEncodeFail.Inc()
	}
}
