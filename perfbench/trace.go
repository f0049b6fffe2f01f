package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// The traced mode records spans from the benchmark's own code around each
// call into a layer: the HTTP handler, the client round trip, and a
// replay of every traced request through the layers' public functions.
// Spans stay in memory and are written out as JSON lines when the run
// ends. A nil *tracer records nothing, so shared code calls it freely.

// reqHeader carries the sequence index of a request, so server-side
// handler spans join the client span and the replay spans of the same
// request.
const reqHeader = "X-Perfbench-Req"

// setupReq is the request id of spans recorded during set-up.
const setupReq = -1

// span is one timed call. Times are nanoseconds since the trace epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	props map[int]graph.Stats // each replayed request's propagation outcome
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), props: map[int]graph.Stats{}} }

// openSpan is a span in progress; end records it.
type openSpan struct {
	tr    *tracer
	s     span
	start time.Time
}

// begin opens a span; on a nil tracer it returns nil, which ends as a no-op.
func (t *tracer) begin(name string, req int, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{tr: t, s: span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name}, start: time.Now()}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() { o.endCell("") }

// endCell ends a span that names the cell it worked on.
func (o *openSpan) endCell(cell string) {
	if o == nil {
		return
	}
	o.s.Cell = cell
	o.tr.record(o.s, o.start, time.Now())
}

func (t *tracer) record(s span, start, end time.Time) {
	if t == nil {
		return
	}
	s.Start, s.End = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrapHandler records a service.handler span around every request the
// server handles.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		req, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			req = setupReq
		}
		t.record(span{Req: req, Name: "service.handler"}, start, time.Now())
	})
}

// evalTimer wraps a timing graph's stage evaluator (graph.Config.Eval) so
// that every stage evaluation records a csm.stage_solve or nldm.stage_eval
// span, split by the backend plan's per-stage assignment, under the
// graph.propagate span that triggered it.
type evalTimer struct {
	tr     *tracer
	inner  graph.EvalFunc
	assign []engine.BackendKind
	req    int   // written only between propagations
	parent int64 // likewise
}

func (t *tracer) evalHook(inner graph.EvalFunc, assign []engine.BackendKind) *evalTimer {
	if inner == nil {
		inner = sta.EvalStageWithLoad
	}
	return &evalTimer{tr: t, inner: inner, assign: assign}
}

func (et *evalTimer) eval(nl *sta.Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt sta.Options) (wave.Waveform, int, error) {
	name := "csm.stage_solve"
	if et.assign != nil && et.assign[idx] == engine.BackendNLDM {
		name = "nldm.stage_eval"
	}
	sp := et.tr.begin(name, et.req, et.parent)
	w, sw, err := et.inner(nl, models, idx, waves, load, vdd, opt)
	sp.end()
	return w, sw, err
}

// propagate runs g.Propagate under a graph.propagate span. The stage
// evaluations it fans out start after req/parent are set, so the worker
// goroutines read them race-free.
func (et *evalTimer) propagate(ctx context.Context, g *graph.TimingGraph, req int, parent int64) (graph.Stats, error) {
	sp := et.tr.begin("graph.propagate", req, parent)
	et.req, et.parent = req, sp.id()
	stats, err := g.Propagate(ctx)
	sp.end()
	if et.tr != nil && err == nil {
		et.tr.mu.Lock()
		et.tr.props[req] = stats
		et.tr.mu.Unlock()
	}
	return stats, err
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// union is the total length of the union of [start, end) intervals.
func union(spans []span) time.Duration {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// layerReport derives the per-layer metrics of the traced window
// [from, to) from the recorded spans: per-request call times, the
// stage-evaluation distributions, and the split of the server-side
// handler time into layers plus the unattributed remainder.
func (t *tracer) layerReport(from, to int, m metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(to - from)
	byName := map[string][]span{}
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Req == setupReq {
			byName["setup."+s.Name] = append(byName["setup."+s.Name], s)
			continue
		}
		if s.Req < from || s.Req >= to {
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	sum := func(name string) time.Duration {
		var d time.Duration
		for _, s := range byName[name] {
			d += s.dur()
		}
		return d
	}
	durs := func(name string, unit time.Duration) []float64 {
		out := make([]float64, len(byName[name]))
		for i, s := range byName[name] {
			out[i] = float64(s.dur()) / float64(unit)
		}
		return out
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentiles(xs, 0.5)[0]
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// Handler and transport: the client span minus the handler span of the
	// same request is time spent outside the server's handler.
	handler := map[int]time.Duration{}
	var handlerTotal time.Duration
	for _, s := range byName["service.handler"] {
		handler[s.Req] = s.dur()
		handlerTotal += s.dur()
	}
	var transport []float64
	for _, s := range byName["client"] {
		if h, ok := handler[s.Req]; ok {
			transport = append(transport, ms(s.dur()-h))
		}
	}
	m.set("service.handler_ms_p50", p50(durs("service.handler", time.Millisecond)), "ms")
	m.set("service.transport_ms_p50", p50(transport), "ms")

	// Stage evaluations run in parallel inside a propagation: their wall
	// time is the union of their intervals, shared between csm and nldm
	// in proportion to each kind's summed duration.
	var csmWall, nldmWall, propSelf time.Duration
	for _, p := range byName["graph.propagate"] {
		kids := children[p.ID]
		u := union(kids)
		propSelf += p.dur() - u
		var c, d time.Duration
		for _, k := range kids {
			if k.Name == "csm.stage_solve" {
				c += k.dur()
			} else {
				d += k.dur()
			}
		}
		if c+d > 0 {
			csmWall += time.Duration(float64(u) * float64(c) / float64(c+d))
			nldmWall += time.Duration(float64(u) * float64(d) / float64(c+d))
		}
	}

	m.set("engine.plan_ms_per_req", ms(sum("engine.plan"))/n, "ms")
	m.set("engine.plan_setup_ms", ms(sum("setup.engine.plan")), "ms")
	m.set("graph.build_ms_per_req", ms(sum("graph.build"))/n, "ms")
	m.set("graph.propagate_self_ms_per_req", ms(propSelf)/n, "ms")
	m.set("graph.apply_ms_per_round", ms(sum("graph.apply"))/n, "ms")
	m.set("graph.delta_marshal_ms_per_round", ms(sum("graph.delta_marshal"))/n, "ms")
	m.set("csm.stage_solve_ms_p50", p50(durs("csm.stage_solve", time.Millisecond)), "ms")
	m.set("csm.stage_solves_per_req", float64(len(byName["csm.stage_solve"]))/n, "count")
	m.set("nldm.stage_eval_us_p50", p50(durs("nldm.stage_eval", time.Microsecond)), "us")
	m.set("nldm.stage_evals_per_req", float64(len(byName["nldm.stage_eval"]))/n, "count")
	m.set("sta.report_ms_per_req", ms(sum("sta.report"))/n, "ms")
	m.set("sta.marshal_ms_per_req", ms(sum("sta.marshal"))/n, "ms")

	var reeval float64
	var evaluated, skipped int
	var props int
	for req, st := range t.props {
		if req < from || req >= to {
			continue
		}
		props++
		reeval += st.ReevalFraction()
		evaluated += st.StagesEvaluated
		skipped += st.StagesSkipped
	}
	m.set("graph.reeval_fraction", ratio(reeval, float64(props)), "ratio")
	m.set("graph.skip_ratio", ratio(float64(skipped), float64(evaluated+skipped)), "ratio")

	// Characterization happens in set-up only.
	m.set("engine.characterize_s_per_cell", ratio(sum("setup.engine.characterize").Seconds(), float64(len(byName["setup.engine.characterize"]))), "s")
	m.set("nldm.characterize_s", sum("setup.nldm.characterize").Seconds(), "s")

	// The split of handler time: every layer's wall time in the replay as
	// a share of the summed handler time of the same requests.
	parts := map[string]time.Duration{
		"csm":     csmWall,
		"nldm":    nldmWall,
		"engine":  sum("engine.plan"),
		"graph":   sum("graph.build") + propSelf + sum("graph.apply") + sum("graph.delta_marshal"),
		"sta":     sum("sta.report") + sum("sta.marshal"),
		"service": sum("service.decode"),
	}
	rest := handlerTotal
	for _, name := range []string{"csm", "nldm", "engine", "graph", "sta", "service"} {
		m.set("split."+name+"_pct", pct(parts[name], handlerTotal), "%")
		rest -= parts[name]
	}
	m.set("split.unattributed_pct", pct(rest, handlerTotal), "%")
}

func pct(part, whole time.Duration) float64 {
	return ratio(100*float64(part), float64(whole))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceFile names the span dump of one run.
func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
}
