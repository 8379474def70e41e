// Pdwd is the PathDriver-Wash solve server: a long-running HTTP/JSON
// service that accepts assay documents and answers optimized,
// contamination-free schedules with full solve telemetry.
//
//	pdwd -listen :8080
//	curl -s localhost:8080/v1/solve -d @assay.json
//
// The server admits solves through a bounded worker pool (429 +
// Retry-After when the queue is full), memoizes optimal results in an
// LRU incumbent cache keyed on the canonical (assay, method, weights)
// identity, coalesces identical concurrent requests onto one solve,
// and sheds load to the cheap heuristic warm-start — flagged
// "degraded": true — once the queue passes a watermark. See DESIGN.md
// "Wire schema v1" for the request/response contract.
//
// Every request is observable end to end: pdwd accepts or mints a W3C
// trace context, echoes `Traceparent` and `X-Request-Id` response
// headers, logs structured JSON access lines (-log-level), and keeps a
// tail-sampled flight recorder of completed requests on
// /debug/requests, with per-request Chrome-trace exports on
// /debug/requests/{id}/trace (DESIGN.md "Request observability
// contract"). In-flight solves stream live progress on /debug/solves
// (list, snapshot, SSE watch), and anomalous requests — budget
// overruns, shed load, tail latency — trip a bounded ring of pprof
// captures served on /debug/profiles and linked from the request
// record's profile_id (-profiles, -profile-cpu, -profile-cooldown).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathdriverwash/internal/obs"
	"pathdriverwash/internal/obs/prof"
	"pathdriverwash/internal/obs/reqlog"
	"pathdriverwash/internal/service"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdwd:", err)
	os.Exit(1)
}

func main() {
	var (
		listen  = flag.String("listen", ":8080", "address to serve the solve API on")
		workers = flag.Int("workers", 0, "concurrent exact solves (0: GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "admission queue depth (0: 4x workers)")
		shed    = flag.Int("shed", 0, "queue watermark that sheds solves to the heuristic warm-start (0: half the queue, -1: disable)")
		cache   = flag.Int("cache", 0, "incumbent cache entries (0: 128, -1: disable)")

		defBudget  = flag.Duration("default-budget", 30*time.Second, "budget applied to requests that carry none")
		maxBudget  = flag.Duration("max-budget", 2*time.Minute, "upper clamp on requested budgets")
		shedBudget = flag.Duration("shed-budget", 5*time.Second, "budget for shed heuristic solves")

		logLevel = flag.String("log-level", "info", "structured JSON log level: debug|info|warn|error")
		requests = flag.Int("requests", 512, "flight-recorder ring depth for /debug/requests (-1: disable)")
		sample   = flag.Int("request-sample", 16, "keep 1 in N boring (ok/cached/coalesced) requests; errors, shed, canceled, overrun, and tail-latency requests are always kept")

		profiles    = flag.Int("profiles", 16, "anomaly-triggered profile ring depth for /debug/profiles (-1: disable)")
		profileCPU  = flag.Duration("profile-cpu", time.Second, "CPU capture window per triggered profile")
		profileCool = flag.Duration("profile-cooldown", 30*time.Second, "minimum gap between triggered profiles")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	level, err := reqlog.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger := reqlog.NewLogger(os.Stderr, level)

	// Span recording feeds the flight recorder's per-request traces.
	// Metrics need no flag: solver (pdw_*), service (pdwd_*) and Go
	// runtime series share one registry on /metrics either way.
	obs.Enable()
	// Anomalous requests (overrun, shed, tail latency) trip a pprof
	// capture; the bundles live on /debug/profiles and the triggering
	// record on /debug/requests carries the matching profile_id.
	var trigger *prof.Engine
	if *profiles >= 0 {
		trigger = prof.New(prof.Config{Depth: *profiles, CPUDuration: *profileCPU, Cooldown: *profileCool})
		trigger.InstallDebug()
	}
	var recorder *reqlog.Recorder
	if *requests >= 0 {
		recorder = reqlog.NewRecorder(reqlog.Config{Depth: *requests, SampleEvery: *sample, Trigger: trigger})
		defer recorder.Close()
		// Mount /debug/requests before WithDebug snapshots the debug mux.
		recorder.InstallDebug()
	}
	srv := service.New(service.Config{
		Workers: *workers, QueueDepth: *queue, ShedWatermark: *shed, CacheSize: *cache,
		DefaultBudget: *defBudget, MaxBudget: *maxBudget, ShedBudget: *shedBudget,
		Logger: logger, Recorder: recorder,
	})

	httpSrv := &http.Server{
		Handler:           obs.WithDebug(srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Listen before serving so the log line carries the actual bound
	// address (":0" resolves to a real port scripts can parse).
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"addr", ln.Addr().String(),
			"endpoints", "POST /v1/solve; /healthz, /metrics, /debug/pprof, /debug/requests, /debug/solves, /debug/profiles")
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "reason", "signal", "grace", "30s")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Info("stopped")
}
