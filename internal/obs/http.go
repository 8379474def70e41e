package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

var expvarOnce sync.Once

// publishExpvar exposes the default registry's snapshot under the
// "pdw_metrics" expvar, once per process.
func publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("pdw_metrics", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}

// debugExt holds extension handlers mounted into Handler's mux beside
// the built-in endpoints. Packages that sit above obs (the request
// flight recorder in internal/obs/reqlog) register here so every
// binary's -listen surface picks them up without obs importing them.
var debugExt struct {
	mu       sync.Mutex
	handlers map[string]http.Handler // mux pattern -> handler
}

// RegisterDebug mounts h at the given net/http mux pattern (e.g.
// "GET /debug/requests") on every Handler built afterwards, returning
// a function that unregisters it. Handlers already composed (an
// earlier Handler/WithDebug call) are snapshots and do not see later
// registrations. Registering a duplicate pattern replaces the earlier
// handler.
func RegisterDebug(pattern string, h http.Handler) (remove func()) {
	debugExt.mu.Lock()
	if debugExt.handlers == nil {
		debugExt.handlers = map[string]http.Handler{}
	}
	debugExt.handlers[pattern] = h
	debugExt.mu.Unlock()
	return func() {
		debugExt.mu.Lock()
		delete(debugExt.handlers, pattern)
		debugExt.mu.Unlock()
	}
}

var buildInfoOnce sync.Once

// publishBuildInfo exports the pdwd_build_info gauge (constant 1 with
// version/revision labels from debug.ReadBuildInfo) into the default
// registry, once per process, so Prometheus scrapes can correlate perf
// changes with deploys. Values the build info does not carry (a
// non-module build, no VCS stamping) degrade to "unknown" so the
// series always exists.
func publishBuildInfo(r *Registry) {
	buildInfoOnce.Do(func() {
		version, revision := "unknown", "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.Main.Version != "" {
				version = bi.Main.Version
			}
			for _, kv := range bi.Settings {
				if kv.Key == "vcs.revision" && kv.Value != "" {
					revision = kv.Value
				}
			}
		}
		r.Gauge("pdwd_build_info", "version", version, "revision", revision).Set(1)
	})
}

// collectRuntime refreshes the Go runtime gauges (goroutines, heap,
// GC) in r. The /metrics handler calls it per scrape so the Prometheus
// page always carries a current picture of the process itself, not
// just the solver counters.
func collectRuntime(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("go_goroutines").Set(int64(runtime.NumGoroutine()))
	r.Gauge("go_heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	r.Gauge("go_heap_sys_bytes").Set(int64(ms.HeapSys))
	r.Gauge("go_heap_objects").Set(int64(ms.HeapObjects))
	r.Gauge("go_next_gc_bytes").Set(int64(ms.NextGC))
	r.Gauge("go_gc_cycles_total").Set(int64(ms.NumGC))
	r.Gauge("go_gc_pause_ns_total").Set(int64(ms.PauseTotalNs))
}

// Handler returns the debug HTTP handler: Prometheus text at /metrics
// (solver and service metrics plus Go runtime gauges), expvar JSON at
// /debug/vars, the full net/http/pprof suite at /debug/pprof/, and any
// extension endpoints added with RegisterDebug. A bare "/" serves a
// plain index of the mounted endpoints.
func Handler() http.Handler {
	publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		publishBuildInfo(Default())
		collectRuntime(Default())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/solves", handleSolves)
	mux.HandleFunc("GET /debug/solves/{id}", handleSolve)
	mux.HandleFunc("GET /debug/solves/{id}/watch", handleSolveWatch)
	debugExt.mu.Lock()
	patterns := make([]string, 0, len(debugExt.handlers))
	for pattern, h := range debugExt.handlers {
		mux.Handle(pattern, h)
		patterns = append(patterns, pattern)
	}
	debugExt.mu.Unlock()
	sort.Strings(patterns)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "pdw debug endpoint")
		fmt.Fprintln(w, "  /metrics      Prometheus text format (+ Go runtime gauges)")
		fmt.Fprintln(w, "  /debug/vars   expvar JSON")
		fmt.Fprintln(w, "  /debug/pprof  pprof profiles")
		fmt.Fprintln(w, "  /debug/solves in-flight solves (live progress; append /{id} or /{id}/watch for SSE)")
		for _, p := range patterns {
			fmt.Fprintf(w, "  %s\n", p)
		}
	})
	return mux
}

// Serve enables span recording and serves Handler on addr
// (e.g. "localhost:6060" or ":0") in a background goroutine. It
// returns the bound address, usable when addr requested port 0.
func Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	Enable()
	srv := &http.Server{Handler: Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// ServeDebug is the shared wiring behind every cmd's -listen flag: an
// empty addr is a no-op, otherwise it starts Serve and prints the
// standard banner for the tool on stderr. cmd/pdw, cmd/pdwbench, and
// cmd/pdwd all route their flag through here so the debug surface stays
// identical across binaries.
func ServeDebug(tool, addr string) (string, error) {
	if addr == "" {
		return "", nil
	}
	bound, err := Serve(addr)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (metrics, expvar, pprof)\n", tool, bound)
	return bound, nil
}

// WithDebug composes an application handler with the debug surface:
// /metrics, /debug/..., and the bare "/" index are served by Handler,
// everything else by app. cmd/pdwd uses it to expose the solve API and
// the observability endpoints on one listener.
func WithDebug(app http.Handler) http.Handler {
	debug := Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/" || r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/"):
			debug.ServeHTTP(w, r)
		default:
			app.ServeHTTP(w, r)
		}
	})
}
