package mc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// Config scopes one Monte-Carlo run.
type Config struct {
	// Backend selects the delay calculator every trial evaluates with
	// (csm/nldm/hybrid — resolved once per run through the engine's
	// caches, so trials share models and tables).
	Backend engine.BackendSpec
	// Trials is the trial budget (≥ 1).
	Trials int
	// Seed keys the instance PRNG streams.
	Seed uint64
	// SigmaVt / SigmaStrength are the sampling sigmas (see Variation).
	SigmaVt       float64
	SigmaStrength float64
	// Batch is the streaming granularity: OnUpdate fires every Batch
	// completed-in-order trials (0 = DefaultBatch). Batch size never
	// changes results — only how often the watermark reports.
	Batch int
	// Bins is the worst-path histogram width (0 = DefaultBins).
	Bins int
	// OnUpdate, when set, receives in-order progress snapshots. Calls
	// are serialized and arrive in strictly increasing TrialsDone order.
	OnUpdate func(Update)
}

// Update is a deterministic progress snapshot over the contiguous prefix
// of completed trials: because trials land in a results slice by index
// and the watermark only advances over finished prefixes, the snapshot
// after N trials is the same no matter how many workers ran them.
type Update struct {
	TrialsDone int     // trials reduced so far (prefix length)
	Trials     int     // total budget
	Switched   int     // prefix trials with a switching worst output
	Mean       float64 // worst-arrival statistics over the prefix
	Sigma      float64
	P50        float64
	P95        float64
	P99        float64
}

// OutputDist is the reduced delay distribution of one primary output
// (or of the per-trial worst output, for Result.Worst).
type OutputDist struct {
	Net      string
	Switched int // trials where the output had a transition
	Mean     float64
	Sigma    float64
	Min      float64
	Max      float64
	P50      float64
	P95      float64
	P99      float64
}

// Result is one finished Monte-Carlo run.
type Result struct {
	Backend       engine.BackendKind
	Trials        int
	Seed          uint64
	SigmaVt       float64
	SigmaStrength float64
	VtSens        float64
	// Outputs holds one distribution per primary output, in netlist
	// declaration order.
	Outputs []OutputDist
	// Worst is the distribution of the per-trial worst (latest) primary
	// output arrival — the quantity a statistical timing signoff reads.
	Worst OutputDist
	// WorstNets counts, per primary output, the trials in which it was
	// the worst output — the criticality histogram of the path set.
	WorstNets map[string]int
	// Hist is the worst-arrival histogram (Bins buckets).
	Hist Histogram
	// StageEvals counts stage evaluations across all trials (probe
	// metric; deterministic for a given config).
	StageEvals int64
}

// trialResult is the per-trial record the reduction walks in index order.
type trialResult struct {
	arrivals []float64 // per primary output, NaN = no transition
	worst    float64   // max finite arrival (NaN if none switched)
	worstNet string
}

// Runner evaluates Monte-Carlo runs on an engine's worker pool.
type Runner struct {
	eng *engine.Engine
}

// New wraps an engine. Trials fan out across the engine's workers; each
// trial propagates serially so results never depend on the pool width.
func New(eng *engine.Engine) *Runner { return &Runner{eng: eng} }

// Run executes cfg against a mapped netlist and stimulus. The returned
// result — and every OnUpdate snapshot — is bit-identical for a given
// (netlist, stimulus, options, config) at any worker count.
func (r *Runner) Run(ctx context.Context, cfg Config, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options) (*Result, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("mc: trials must be >= 1 (got %d)", cfg.Trials)
	}
	if cfg.SigmaVt < 0 || cfg.SigmaStrength < 0 {
		return nil, fmt.Errorf("mc: negative sigma")
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	bins := cfg.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	if len(nl.PrimaryOut) == 0 {
		return nil, fmt.Errorf("mc: netlist has no primary outputs")
	}

	// Resolve the backend once: models/tables come out of the engine
	// caches, and hybrid classification runs a single NLDM pass shared
	// by every trial.
	span := obs.SpanFrom(ctx)
	planSpan := span.Start("plan")
	plan, err := r.eng.PlanBackend(obs.WithSpan(ctx, planSpan), cfg.Backend, nl, primary, opt)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	base := plan.Eval
	if base == nil {
		base = sta.EvalStageWithLoad
	}
	vdd := plan.Vdd
	if vdd == 0 {
		vdd = cfg.Backend.Tech.Vdd
	}

	v := Variation{
		SigmaVt:       cfg.SigmaVt,
		SigmaStrength: cfg.SigmaStrength,
		VtSens:        VtSensitivity(cfg.Backend.Tech),
	}
	keys := make([]uint64, len(nl.Instances))
	for i, inst := range nl.Instances {
		keys[i] = InstanceKey(cfg.Seed, inst.Name)
	}

	trials := make([]trialResult, cfg.Trials)
	var stageEvals atomic.Int64

	// Watermark reduction: completed trials mark `done`; the watermark
	// walks the contiguous finished prefix under the mutex, feeding the
	// streaming worst-arrival estimator in trial order and firing
	// OnUpdate at batch boundaries. Workers race to *finish* trials, but
	// the reduction sequence is the index order — the exact sequence a
	// serial run produces.
	trialsSpan := span.Start("trials")
	trialsSpan.LabelInt("trials", int64(cfg.Trials))
	var (
		mu         sync.Mutex
		done       = make([]bool, cfg.Trials)
		watermark  int
		prefix     Stream
		switched   int
		batchStart time.Time
	)
	if trialsSpan != nil {
		batchStart = time.Now()
	}
	complete := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		for watermark < cfg.Trials && done[watermark] {
			t := &trials[watermark]
			if !math.IsNaN(t.worst) {
				switched++
				prefix.Add(t.worst)
			}
			watermark++
			if watermark%batch != 0 && watermark != cfg.Trials {
				continue
			}
			// Batch boundary: one retroactive span per batch gives the
			// trace the trial-throughput timeline without a clock read
			// per trial.
			if trialsSpan != nil {
				now := time.Now()
				trialsSpan.Record("batch", batchStart, now).
					LabelInt("trials_done", int64(watermark))
				batchStart = now
			}
			if cfg.OnUpdate != nil {
				cfg.OnUpdate(Update{
					TrialsDone: watermark,
					Trials:     cfg.Trials,
					Switched:   switched,
					Mean:       prefix.Mean(),
					Sigma:      prefix.Sigma(),
					P50:        prefix.Quantile(0.50),
					P95:        prefix.Quantile(0.95),
					P99:        prefix.Quantile(0.99),
				})
			}
		}
	}

	runTrial := func(ti int) error {
		res, evals, err := r.evalTrial(ctx, plan, base, v, keys, nl, primary, opt, vdd, ti)
		if err != nil {
			return err
		}
		trials[ti] = res
		stageEvals.Add(evals)
		complete(ti)
		return nil
	}

	workers := r.eng.Workers()
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	if workers <= 1 {
		for ti := 0; ti < cfg.Trials; ti++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := runTrial(ti); err != nil {
				return nil, err
			}
		}
	} else {
		// The sweep pool shape: a trial-index channel, a failure flag
		// that drains the queue, and the lowest-index error reported —
		// so even failures are deterministic.
		jobs := make(chan int)
		errs := make([]error, cfg.Trials)
		var failed atomic.Bool
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ti := range jobs {
					if failed.Load() || ctx.Err() != nil {
						continue
					}
					if err := runTrial(ti); err != nil {
						errs[ti] = err
						failed.Store(true)
					}
				}
			}()
		}
		for ti := 0; ti < cfg.Trials; ti++ {
			jobs <- ti
		}
		close(jobs)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	trialsSpan.End()
	return reduce(cfg, plan, v, nl, trials, bins, stageEvals.Load())
}

// evalTrial runs one full-circuit STA with the trial's per-instance
// delay scales layered over the backend's evaluator.
func (r *Runner) evalTrial(ctx context.Context, plan *engine.BackendPlan, base graph.EvalFunc, v Variation, keys []uint64, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options, vdd float64, trial int) (trialResult, int64, error) {
	scales := make([]float64, len(keys))
	for i, k := range keys {
		scales[i] = v.Scale(k, trial)
	}
	wrapped := wrapEval(base, scales, vdd)

	// Workers:1 — each trial is a fixed serial evaluation sequence;
	// parallelism lives across trials. ShareNetlist is safe: the graph
	// is never edited and the netlist's memoized levelization is
	// mutex-guarded (the service shares cached workloads the same way).
	g, err := graph.Build(nl, plan.Models, primary, opt, graph.Config{
		Workers:      1,
		ShareNetlist: true,
		Eval:         wrapped,
		Vdd:          plan.Vdd,
		EvalHist:     r.eng.StageHist(),
	})
	if err != nil {
		return trialResult{}, 0, fmt.Errorf("mc: trial %d: %w", trial, err)
	}
	if _, err := g.Propagate(ctx); err != nil {
		return trialResult{}, 0, err
	}
	rep := g.Report()

	res := trialResult{
		arrivals: make([]float64, len(nl.PrimaryOut)),
		worst:    math.NaN(),
	}
	for oi, net := range nl.PrimaryOut {
		arr := math.NaN()
		if nr, ok := rep.Nets[net]; ok {
			arr = nr.Arrival
		}
		res.arrivals[oi] = arr
		if !math.IsNaN(arr) && (math.IsNaN(res.worst) || arr > res.worst) {
			res.worst = arr
			res.worstNet = net
		}
	}
	return res, g.StageEvals(), nil
}

// reduce folds the trial records — in index order — into the final
// distributions.
func reduce(cfg Config, plan *engine.BackendPlan, v Variation, nl *sta.Netlist, trials []trialResult, bins int, stageEvals int64) (*Result, error) {
	res := &Result{
		Backend:       plan.Kind,
		Trials:        cfg.Trials,
		Seed:          cfg.Seed,
		SigmaVt:       cfg.SigmaVt,
		SigmaStrength: cfg.SigmaStrength,
		VtSens:        v.VtSens,
		WorstNets:     map[string]int{},
		StageEvals:    stageEvals,
	}
	for oi, net := range nl.PrimaryOut {
		var s Stream
		for ti := range trials {
			if arr := trials[ti].arrivals[oi]; !math.IsNaN(arr) {
				if err := s.Add(arr); err != nil {
					return nil, err
				}
			}
		}
		res.Outputs = append(res.Outputs, distFrom(net, &s))
	}
	var worst Stream
	for ti := range trials {
		t := &trials[ti]
		if !math.IsNaN(t.worst) {
			if err := worst.Add(t.worst); err != nil {
				return nil, err
			}
			res.WorstNets[t.worstNet]++
		}
	}
	res.Worst = distFrom("", &worst)
	res.Hist = worst.Histogram(bins)
	return res, nil
}

// distFrom snapshots a finished stream into an OutputDist.
func distFrom(net string, s *Stream) OutputDist {
	return OutputDist{
		Net:      net,
		Switched: s.N(),
		Mean:     s.Mean(),
		Sigma:    s.Sigma(),
		Min:      s.Min(),
		Max:      s.Max(),
		P50:      s.Quantile(0.50),
		P95:      s.Quantile(0.95),
		P99:      s.Quantile(0.99),
	}
}

// wrapEval layers a per-instance delay scale over a backend evaluator:
// the stage is evaluated exactly as the backend would, then its output
// waveform is time-shifted by (k−1)·d, where d is the stage's own delay
// (first half-rail output crossing minus the latest first half-rail
// input crossing). Shifting — rather than re-simulating with perturbed
// devices — keeps trials cheap on every backend, preserves waveform
// shapes, and is exact float arithmetic, so the determinism contract
// survives. The shift composes transitively: a shifted output is the
// next stage's input, so variation accumulates along paths.
func wrapEval(base graph.EvalFunc, scales []float64, fallbackVdd float64) graph.EvalFunc {
	return func(nl *sta.Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt sta.Options) (wave.Waveform, int, error) {
		out, sw, err := base(nl, models, idx, waves, load, vdd, opt)
		if err != nil {
			return out, sw, err
		}
		rail := vdd
		if rail <= 0 {
			rail = fallbackVdd
		}
		return scaleStage(nl, idx, waves, out, rail, scales[idx]), sw, nil
	}
}

// scaleStage applies the trial factor k to an evaluated stage output.
// The stage delay d is measured exactly as the report does — first
// half-rail crossings — and a stage that never switches, has no
// switching input, or has non-positive measured delay passes through
// unshifted.
func scaleStage(nl *sta.Netlist, idx int, waves map[string]wave.Waveform, out wave.Waveform, vdd, k float64) wave.Waveform {
	if k == 1 || vdd <= 0 {
		return out
	}
	oc, ok := out.FirstCross(vdd / 2)
	if !ok {
		return out
	}
	tIn := math.Inf(-1)
	for _, net := range nl.Instances[idx].Inputs {
		w, ok := waves[net]
		if !ok {
			continue
		}
		if c, ok := w.FirstCross(vdd / 2); ok && c.Time > tIn {
			tIn = c.Time
		}
	}
	if math.IsInf(tIn, -1) {
		return out
	}
	d := oc.Time - tIn
	if d <= 0 {
		return out
	}
	return out.Shifted((k - 1) * d)
}
