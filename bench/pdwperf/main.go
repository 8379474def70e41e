// Pdwperf is the PathDriver-Wash performance benchmark: four workloads
// that drive the system only through its public entry points
// (pathdriver.Synthesize, Baseline, OptimizeWash) and a real pdwd over
// HTTP, time every call from the benchmark's own code, and check every
// output.
//
//	go run ./pdwperf -workload exact-small -seed 1            # from bench/
//	go run ./pdwperf -workload service-mix -pdwd PATH -trace out.json
//
// An untraced run prints the end-to-end metrics; a run with -trace
// FILE prints the per-layer metrics and writes a Chrome trace of the
// benchmark-side spans. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See
// bench/README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDecl is one reported metric: its unit, and for a per-layer
// metric the end-to-end metrics it should move, as "metric@workload".
type metricDecl struct {
	unit  string
	moves []string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = map[string]metricDecl{
	"setup_s":       {unit: "s"},
	"pass_s":        {unit: "s"},
	"op_ms.p50":     {unit: "ms"},
	"op_ms.tail":    {unit: "ms"},
	"peak_rss_mb":   {unit: "MB"},
	"objective_sum": {unit: "eq26"},
	"n_wash_sum":    {unit: "count"},
	"l_wash_mm_sum": {unit: "mm"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = map[string]metricDecl{
	"synth.s":              {"s", []string{"pass_s@heuristic-scale"}},
	"dawo.s":               {"s", []string{"pass_s@table2-budgeted"}},
	"pdw.optimize_self_s":  {"s", []string{"pass_s@heuristic-scale"}},
	"pdw.insertion_self_s": {"s", []string{"pass_s@heuristic-scale", "pass_s@service-mix"}},
	"pdw.window_s":         {"s", []string{"pass_s@exact-small"}},
	"pdw.window_self_s":    {"s", []string{"pass_s@exact-small"}},
	"pdw.verify_s":         {"s", []string{"pass_s@exact-small", "pass_s@table2-budgeted", "pass_s@heuristic-scale"}},
	"pdw.rounds":           {"count", []string{"pass_s@heuristic-scale", "pass_s@table2-budgeted"}},
	"washpath.ilps":        {"count", []string{"pass_s@exact-small", "pass_s@table2-budgeted"}},
	"washpath.cut_rounds":  {"count", []string{"pass_s@exact-small", "pass_s@table2-budgeted"}},
	"washpath.ilp_s":       {"s", []string{"pass_s@exact-small", "pass_s@table2-budgeted"}},
	"washpath.closed_frac": {"ratio", []string{"objective_sum@table2-budgeted", "l_wash_mm_sum@table2-budgeted"}},
	"window.closed_frac":   {"ratio", []string{"objective_sum@table2-budgeted"}},
	"milp.nodes":           {"count", []string{"pass_s@exact-small"}},
	"milp.pruned_frac":     {"ratio", []string{"pass_s@exact-small"}},
	"milp.nodes_per_s":     {"1/s", []string{"pass_s@exact-small", "objective_sum@table2-budgeted"}},
	"lp.pivots":            {"count", []string{"pass_s@exact-small"}},
	"lp.pivots_per_s":      {"1/s", []string{"pass_s@exact-small", "objective_sum@table2-budgeted"}},
	"go.alloc_mb":          {"MB", []string{"pass_s@exact-small", "pass_s@table2-budgeted", "pass_s@heuristic-scale", "peak_rss_mb@heuristic-scale"}},
	"go.gc_cpu_frac":       {"ratio", []string{"pass_s@exact-small", "pass_s@table2-budgeted", "pass_s@heuristic-scale"}},

	"service.hit_ratio":          {"ratio", []string{"op_ms.p50@service-mix", "op_ms.tail@service-mix"}},
	"service.response_kb.mean":   {"KB", []string{"op_ms.p50@service-mix", "op_ms.tail@service-mix"}},
	"service.cpu_ms_per_req":     {"ms", []string{"op_ms.p50@service-mix", "op_ms.tail@service-mix"}},
	"service.solve_ms.mean":      {"ms", []string{"pass_s@service-mix"}},
	"service.presolve_ms.mean":   {"ms", []string{"pass_s@service-mix"}},
	"service.pdw_ms.mean":        {"ms", []string{"pass_s@service-mix"}},
	"service.overhead_ms.mean":   {"ms", []string{"pass_s@service-mix"}},
	"service.queue_wait_ms.mean": {"ms", []string{"pass_s@service-mix", "op_ms.tail@service-mix"}},
	"service.coalesced":          {"count", []string{"op_ms.tail@service-mix"}},
	"service.shed":               {"count", []string{"pass_s@service-mix"}},
	"service.rejected":           {"count", []string{"pass_s@service-mix"}},
	"service.late_ms.max":        {"ms", []string{"op_ms.tail@service-mix"}},
	"trace.overhead_frac":        {"ratio", []string{"pass_s@exact-small", "op_ms.p50@service-mix"}},
}

// workloads lists the workload names in the order the README gives.
var workloads = []string{"exact-small", "table2-budgeted", "heuristic-scale", "service-mix"}

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	tracePath string
	pdwd      string

	setups    int // setups timed for setup_s
	instances int // pool size limit (0: the whole pool)
	maxPasses int // pass limit (0: as many as fit in seconds)
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	errs              []error
	values            map[string]float64
	notes             []string
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// zeroService reports the service layers as idle (library workloads).
func (r *report) zeroService() {
	for name := range perLayer {
		if strings.HasPrefix(name, "service.") {
			r.set(name, 0)
		}
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table and then the JSON line. It
// fails if the run did not produce exactly the declared metrics.
func (r *report) print(w io.Writer, decls map[string]metricDecl) error {
	if len(r.values) != len(decls) {
		return fmt.Errorf("run produced %d metrics, %d declared", len(r.values), len(decls))
	}
	names := make([]string, 0, len(decls))
	for name := range decls {
		if _, ok := r.values[name]; !ok {
			return fmt.Errorf("run did not produce metric %s", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "# FAILED:", e)
	}
	out := result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]resultValue{},
	}
	for _, name := range names {
		d := decls[name]
		v := r.values[name]
		line := fmt.Sprintf("%-28s %14.6g %s", name, v, d.unit)
		if len(d.moves) > 0 {
			line += fmt.Sprintf("   (moves %v)", d.moves)
		}
		fmt.Fprintln(w, line)
		// JSON has no infinities: a failed request's +Inf latency is
		// written as the largest float, and the run is not correct.
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
			out.Correct = false
		}
		out.Metrics[name] = resultValue{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return errors.New("run attempted no operations")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// run executes one workload run.
func run(ctx context.Context, cfg config) (*report, error) {
	if w, ok := libWorkloads[cfg.workload]; ok {
		return runLibrary(ctx, w, cfg)
	}
	if cfg.workload == "service-mix" {
		return runService(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: exact-small, table2-budgeted, heuristic-scale, service-mix")
		seed     = flag.Int64("seed", 1, "workload seed: it orders the input pool and drives the service traffic")
		seconds  = flag.Float64("seconds", 20, "measurement window in seconds")
		trace    = flag.String("trace", "", "report per-layer metrics and write a Chrome trace of the run to this file")
		pdwd     = flag.String("pdwd", "", "pdwd binary (service-mix)")
		smoke    = flag.Bool("smoke", false, "tiny inputs, one setup and a 3 s service-mix: a quick end-to-end check")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pdwperf: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, tracePath: *trace, pdwd: *pdwd,
		seconds: time.Duration(*seconds * float64(time.Second)),
		setups:  3,
	}
	if *smoke {
		cfg.setups, cfg.instances, cfg.maxPasses = 1, 2, 1
		cfg.seconds = min(cfg.seconds, 3*time.Second)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg)
	if err == nil {
		decls := endToEnd
		if cfg.tracePath != "" {
			decls = perLayer
		}
		err = rep.print(os.Stdout, decls)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdwperf:", err)
		stop()
		os.Exit(1)
	}
}
