// Command perfbench is the repository's end-to-end benchmark. It starts
// an in-process timing service (service.Server with default settings)
// behind a real loopback HTTP listener, drives one of three closed-loop
// workloads from a request sequence generated from --seed, checks every
// reply against the direct-engine bytes, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also sends a traced window and replays it through the layers'
// public functions, and the metrics are the per-layer ones. README.md
// next to this file explains the workloads and how to read the numbers.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold-mis --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mcsm/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // set-ups per untraced run; setup_s is their median
	limit    int    // requests per window; 0 sends until the window closes
	traceDir string // where the traced mode writes its spans
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{setups: 3, traceDir: ".bench_build"}
	fs.StringVar(&opt.workload, "workload", "", "cold-mis, warm-mix or eco-crit")
	fs.Int64Var(&opt.seed, "seed", 1, "request-sequence seed")
	fs.Float64Var(&opt.seconds, "seconds", 15, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 adds the traced window and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *traceFlag == 1
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	rep, err := bench(context.Background(), opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := rep.res
	res.Metrics = rep.endToEnd
	if opt.trace {
		res.Metrics = rep.layers
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is what one run measured.
type report struct {
	res      result
	endToEnd metrics
	layers   metrics // per-layer metrics and diagnostics
}

// bench runs one workload: set-up (several times for setup_s, keeping the
// last server), the timed window, the traced window in the traced mode,
// then reply verification and the window-hygiene checks.
func bench(ctx context.Context, opt options, log io.Writer) (*report, error) {
	wl, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	setups := opt.setups
	if opt.trace {
		tr, setups = newTracer(), 1
	}
	calibBefore := calibrate()

	var e *env
	var setupS []float64
	for k := 0; k < setups; k++ {
		if e != nil {
			e.closeAll()
		}
		start := time.Now()
		if e, err = setUp(ctx, wl, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer e.closeAll()
	setupErr := wl.prepare(ctx, e, tr)
	if setupErr != nil && !errors.Is(setupErr, errMismatch) {
		return nil, setupErr
	}

	dur := time.Duration(opt.seconds * float64(time.Second))
	w, err := e.run(ctx, wl, 0, dur, opt.limit, nil)
	if err != nil {
		return nil, err
	}
	// Replies the window could not check on arrival are verified now,
	// outside the timed window.
	checked, bad, err := wl.verify(ctx, e, len(w.samples), tr)
	if err != nil {
		return nil, err
	}
	windows := []*window{w}
	if tr != nil {
		te, err := startEnv(e.srv, tr.wrapHandler(e.srv.Handler()), wl.clients())
		if err != nil {
			return nil, err
		}
		tw, err := te.run(ctx, wl, len(w.samples), dur, opt.limit, tr)
		if cerr := te.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		windows = append(windows, tw)
		checked += len(tw.samples)
	}
	calibMs := (calibBefore + calibrate()) / 2

	// A failed or mismatched reply counts against the requests attempted;
	// a hygiene violation makes the run incorrect.
	res := result{Correct: setupErr == nil}
	if setupErr != nil {
		fmt.Fprintf(log, "perfbench: set-up: %v\n", setupErr)
	}
	failed := map[int]bool{}
	for _, i := range bad {
		failed[i] = true
	}
	for _, win := range windows {
		res.Attempted += len(win.samples)
		for _, s := range win.samples {
			if s.failed {
				failed[s.req] = true
			}
		}
		for _, herr := range []error{characterizedIn(win), wl.hygiene(win)} {
			if herr != nil {
				fmt.Fprintf(log, "perfbench: %v\n", herr)
				res.Correct = false
			}
		}
	}
	res.Failed = len(failed)
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d requests, %d replies checked against the direct engine after arrival, %d failed\n",
		opt.workload, opt.seed, res.Attempted, checked, res.Failed)

	endToEnd := metrics{}
	lat := percentiles(w.latencies(), 0.5, 0.9, 0.99, 1)
	n := float64(len(w.samples))
	endToEnd.set("setup_s", percentiles(setupS, 0.5)[0], "s")
	endToEnd.set("req_per_s", n/w.elapsed.Seconds(), "1/s")
	endToEnd.set("latency_ms_p50", lat[0], "ms")
	endToEnd.set("latency_ms_p90", lat[1], "ms")
	endToEnd.set("cpu_ms_per_req", float64(w.cpu)/1e6/n, "ms")
	endToEnd.set("alloc_mb_per_req", float64(w.alloc)/1e6/n, "MB")
	endToEnd.set("live_heap_mb", float64(w.live)/1e6, "MB")

	layers := metrics{}
	layers.set("requests", n, "count")
	layers.set("failed", float64(res.Failed), "count")
	layers.set("latency_ms_p99", lat[2], "ms")
	layers.set("latency_ms_max", lat[3], "ms")
	layers.set("host.calib_ms", calibMs, "ms")
	counterMetrics(windows[len(windows)-1], layers)
	if tr != nil {
		traced := percentiles(windows[1].latencies(), 0.5)[0]
		layers.set("trace.overhead_pct", 100*(traced-lat[0])/lat[0], "%")
		tr.layerReport(len(w.samples), res.Attempted, layers)
		path := traceFile(opt.traceDir, opt.workload, opt.seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "perfbench: spans written to %s\n", path)
	}

	printClasses(log, wl.classes(), w)
	printTable(log, "end-to-end", endToEnd)
	printTable(log, "per-layer", layers)
	return &report{res: res, endToEnd: endToEnd, layers: layers}, nil
}

// setUp starts a server with an empty model cache and no spill directory,
// characterizes every model the workload's sequence can reach, and sends
// the workload's warm-up requests.
func setUp(ctx context.Context, wl workload, tr *tracer) (*env, error) {
	srv := service.New(service.Config{})
	e, err := startEnv(srv, srv.Handler(), wl.clients())
	if err != nil {
		srv.Close()
		return nil, err
	}
	if err := e.characterize(ctx, wl.models(), tr); err != nil {
		e.closeAll()
		return nil, err
	}
	if err := wl.warmup(ctx, e); err != nil {
		e.closeAll()
		return nil, err
	}
	return e, nil
}

// characterizedIn reports a characterization inside a timed window.
func characterizedIn(w *window) error {
	if d := w.after.ModelCache.Characterized - w.before.ModelCache.Characterized; d != 0 {
		return fmt.Errorf("%d model characterizations ran inside the timed window", d)
	}
	return nil
}

// counterMetrics derives per-layer metrics from the counters the program
// already exposes, read before and after a window.
func counterMetrics(w *window, m metrics) {
	b, a := w.before, w.after
	n := float64(len(w.samples))
	hitRatio := func(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }
	m.set("service.graph_cache_hit_ratio", hitRatio(a.GraphCache.Hits-b.GraphCache.Hits, a.GraphCache.Misses-b.GraphCache.Misses), "ratio")
	m.set("service.netlist_cache_hit_ratio", hitRatio(a.NetlistCache.Hits-b.NetlistCache.Hits, a.NetlistCache.Misses-b.NetlistCache.Misses), "ratio")
	m.set("service.batch_dedup_ratio", ratio(float64(a.Batch.Deduped-b.Batch.Deduped), float64(a.Batch.Items-b.Batch.Items)), "ratio")
	evals := a.Latency.StageEvals.Count - b.Latency.StageEvals.Count
	evalMs := a.Latency.StageEvals.MeanMs*float64(a.Latency.StageEvals.Count) - b.Latency.StageEvals.MeanMs*float64(b.Latency.StageEvals.Count)
	m.set("engine.stage_evals_per_req", float64(evals)/n, "count")
	m.set("engine.stage_eval_ms_mean", ratio(evalMs, float64(evals)), "ms")
	m.set("runtime.gc_cycles_per_req", float64(w.gcs)/n, "count")
	m.set("runtime.gc_pause_ms_per_req", float64(w.gcPause)/1e6/n, "ms")
}

func printTable(w io.Writer, title string, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printClasses prints each request class's share of the window and its
// latency quantiles, which shows which class the p50 and p90 fall in.
func printClasses(w io.Writer, names []string, win *window) {
	lat := make([][]float64, len(names))
	for _, s := range win.samples {
		lat[s.class] = append(lat[s.class], s.ms())
	}
	fmt.Fprintln(w, "classes (share, p50 ms, p90 ms):")
	for c, xs := range lat {
		q := percentiles(xs, 0.5, 0.9)
		fmt.Fprintf(w, "  %-14s %6.1f%% %10.4g %10.4g\n", names[c], 100*float64(len(xs))/float64(len(win.samples)), q[0], q[1])
	}
}
