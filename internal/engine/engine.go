package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/graph"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// Engine evaluates netlists through the shared ModelCache, running the
// independent stages of each topological level concurrently on a worker
// pool. Because every stage is evaluated by the identical sta.EvalStage
// code against identical inputs, the result is bit-identical to the serial
// sta.Analyze path regardless of worker count (guaranteed by test).
type Engine struct {
	workers    int
	cache      *ModelCache
	nldm       *nldmCache
	stageEvals atomic.Int64
	streamed   atomic.Int64  // stages started on a live input, one-shot analyses
	stageHist  obs.Histogram // per-stage-evaluation latency, all analyses
}

// New returns an engine with the given worker-pool width (0 or negative
// selects GOMAXPROCS) backed by cache (nil allocates a fresh in-memory
// ModelCache).
func New(workers int, cache *ModelCache) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cache == nil {
		cache = NewModelCache()
	}
	return &Engine{workers: workers, cache: cache, nldm: newNLDMCache()}
}

// Workers reports the worker-pool width.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's model cache.
func (e *Engine) Cache() *ModelCache { return e.cache }

// StageEvals reports the cumulative number of stage simulations the engine
// has run — the hot-path operation count for throughput metrics.
func (e *Engine) StageEvals() int64 { return e.stageEvals.Load() }

// StagesStreamed reports how many stages of the engine's one-shot
// analyses started while one of their inputs was still being solved
// (graph.Stats.StagesStreamed). It depends on the schedule.
func (e *Engine) StagesStreamed() int64 { return e.streamed.Load() }

// StageHist returns the engine's stage-evaluation latency histogram.
// Every analysis routed through the engine (one-shot, backend, and MC
// trials) observes each stage evaluation's duration here, from its start
// to its return: a stage that started on a live input also counts the
// time it waited for its producer's samples.
func (e *Engine) StageHist() *obs.Histogram { return &e.stageHist }

// KindFor selects the model kind the engine characterizes a cell as: the
// paper's MCSM when the spec models two inputs, the SIS CSM otherwise
// (e.g. the inverter, which has no stack node).
func KindFor(spec cells.Spec) csm.Kind {
	if len(spec.ModelInputs) >= 2 {
		return csm.KindMCSM
	}
	return csm.KindSIS
}

// ModelsFor characterizes, through the cache, one model per distinct cell
// type used in the netlist, fanning independent characterizations out on
// the worker pool (the cache's singleflight collapses duplicates). The
// model kind per cell comes from KindFor.
func (e *Engine) ModelsFor(tech cells.Tech, nl *sta.Netlist, cfg csm.Config) (map[string]*csm.Model, error) {
	return e.ModelsForCtx(context.Background(), tech, nl, cfg)
}

// ModelsForCtx is ModelsFor with trace attribution: when ctx carries a
// span, a "models" child records the whole resolution and one "model"
// grandchild per cell type is labeled with how the cache satisfied it
// (hit / disk / characterized) — the difference between nanoseconds
// and seconds of request time.
func (e *Engine) ModelsForCtx(ctx context.Context, tech cells.Tech, nl *sta.Netlist, cfg csm.Config) (map[string]*csm.Model, error) {
	var types []string
	seen := map[string]bool{}
	for _, inst := range nl.Instances {
		if !seen[inst.Type] {
			seen[inst.Type] = true
			types = append(types, inst.Type)
		}
	}
	specs := make([]cells.Spec, len(types))
	for i, t := range types {
		spec, err := cells.Get(t)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}

	modelsSpan := obs.SpanFrom(ctx).Start("models")
	modelsArr := make([]*csm.Model, len(types))
	errs := make([]error, len(types))
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for i := range types {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sp := modelsSpan.Start("model")
			var outcome Outcome
			modelsArr[i], outcome, errs[i] = e.cache.GetOutcome(tech, specs[i], KindFor(specs[i]), cfg)
			sp.Label("cell", types[i])
			sp.Label("outcome", string(outcome))
			sp.End()
		}(i)
	}
	wg.Wait()
	modelsSpan.End()

	models := make(map[string]*csm.Model, len(types))
	for i, t := range types {
		if errs[i] != nil {
			return nil, fmt.Errorf("engine: characterize %s: %w", t, errs[i])
		}
		models[t] = modelsArr[i]
	}
	return models, nil
}

// Analyze is the level-parallel counterpart of sta.Analyze: levels from
// Netlist.Levels are processed in order, and the independent stages inside
// each level are simulated concurrently by up to Workers goroutines. Stage
// outputs are committed to the net-waveform map only between levels, so
// every stage reads exactly the waveforms the serial path would have seen.
// On error, the lowest-index failing stage of the earliest failing level
// wins. When exactly one stage fails this is the serial path's error; with
// several failures in one level the serial path may surface a different
// one of them (its DFS order need not match index order within a level).
func (e *Engine) Analyze(nl *sta.Netlist, models map[string]*csm.Model, primary map[string]wave.Waveform, opt sta.Options) (*sta.Report, error) {
	return e.AnalyzeCtx(context.Background(), nl, models, primary, opt)
}

// AnalyzeCtx is Analyze with cooperative cancellation: the context is
// checked between levels (the commit barriers), so a canceled analysis
// stops after the level in flight instead of simulating the rest of the
// netlist. Cancellation never changes results — a run that completes is
// bit-identical to Analyze; a canceled run returns ctx.Err() and no
// report. This is the hook the timing service uses for per-request
// deadlines and client disconnects.
//
// Since the incremental layer landed, this is a thin wrapper over "build a
// retained timing graph + one full propagation" (internal/graph): the
// one-shot and ECO paths share every primitive, so they cannot drift. The
// golden fixtures under testdata/golden pin the wrapper's bytes against
// the pre-graph implementation.
func (e *Engine) AnalyzeCtx(ctx context.Context, nl *sta.Netlist, models map[string]*csm.Model, primary map[string]wave.Waveform, opt sta.Options) (*sta.Report, error) {
	g, err := e.AnalyzeGraphCtx(ctx, nl, models, primary, opt)
	if err != nil {
		return nil, err
	}
	return g.Report(), nil
}

// AnalyzeGraphCtx is AnalyzeCtx returning the propagated timing graph
// itself instead of just its report. The graph retains full per-net
// waveform state, so a caller may hold on to it and materialize the
// (bit-identical) report again later without re-propagating.
// Callers that keep the graph must treat it as immutable: Report() is a
// pure read, but edits belong to ECO sessions, which build their own.
func (e *Engine) AnalyzeGraphCtx(ctx context.Context, nl *sta.Netlist, models map[string]*csm.Model, primary map[string]wave.Waveform, opt sta.Options) (*graph.TimingGraph, error) {
	g, stats, err := e.realize(ctx, &BackendPlan{Models: models}, nil, nl, primary, opt, e.oneShot())
	if err != nil {
		return nil, err
	}
	e.stageEvals.Add(g.StageEvals())
	e.streamed.Add(int64(stats.StagesStreamed))
	return g, nil
}

// oneShot configures the graph of a one-shot analysis. ShareNetlist: no
// edits ever run on it, so cloning the netlist would be pure overhead —
// and sharing keeps the netlist's memoized Levels/Fanouts warm across
// repeat analyses of one cached workload.
func (e *Engine) oneShot() graph.Config {
	return graph.Config{Workers: e.workers, ShareNetlist: true, EvalHist: &e.stageHist}
}

// FlatReference delegates to sta.FlatReference — the flat transistor-level
// netlist is one coupled circuit and cannot be stage-parallelized. It
// exists so consumers drive every analysis mode through the engine.
func (e *Engine) FlatReference(nl *sta.Netlist, tech cells.Tech, primary map[string]wave.Waveform, opt sta.Options) (*sta.Report, error) {
	return sta.FlatReference(nl, tech, primary, opt)
}
