package engine

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/graph"
	"mcsm/internal/nldm"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// The pluggable delay-backend layer: one request-level switch between the
// CSM waveform path (accurate, expensive), the NLDM table path (cheap,
// shape-blind), and the hybrid strategy of the Ferdowsi et al. follow-up
// work — a table pass over the whole circuit, slack classification, and
// CSM refinement of only the near-critical stages, in place on the graph
// the table pass propagated. Every backend runs through one path,
// BackendGraph: graph.Build plus Propagate under the plan's eval hook.
// The CSM plan's hook is the default stage evaluator, so its reports stay
// byte-identical to the golden corpus.

// BackendKind names a delay calculator.
type BackendKind string

const (
	BackendCSM    BackendKind = "csm"
	BackendNLDM   BackendKind = "nldm"
	BackendHybrid BackendKind = "hybrid"
)

// ParseBackendKind resolves a request string ("" = the CSM default).
func ParseBackendKind(s string) (BackendKind, error) {
	switch BackendKind(s) {
	case "", BackendCSM:
		return BackendCSM, nil
	case BackendNLDM:
		return BackendNLDM, nil
	case BackendHybrid:
		return BackendHybrid, nil
	}
	return "", fmt.Errorf("engine: unknown backend %q (want csm, nldm, or hybrid)", s)
}

// BackendSpec configures one backend analysis.
type BackendSpec struct {
	Kind BackendKind
	Tech cells.Tech
	// CSM is the characterization config for waveform models (csm and
	// hybrid kinds).
	CSM csm.Config
	// NLDM is the table characterization grid (nldm and hybrid kinds);
	// the zero value means nldm.DefaultConfig(Tech).
	NLDM nldm.Config
	// Margin is the hybrid criticality threshold in seconds: stages whose
	// NLDM slack is ≤ Margin are re-evaluated with CSM. Zero or negative
	// selects the default, 10% of the NLDM pass's worst output arrival.
	Margin float64
	// Tables preloads per-cell-type NLDM libraries (parsed Liberty
	// ingestion); missing types are characterized on demand.
	Tables map[string]*nldm.Library
}

// BackendPlan is a resolved backend: everything a timing graph build
// needs (models, eval hook, rail voltage) plus the per-stage attribution
// the hybrid classification produced. Plans are immutable once built —
// ECO sessions hold one for their lifetime, so a session keeps its
// backend across every edit round.
type BackendPlan struct {
	Kind   BackendKind
	Margin float64 // resolved hybrid margin (0 for csm/nldm)
	// Models are the CSM models the graph evaluates with (nil for the
	// pure table backend).
	Models map[string]*csm.Model
	// Vdd carries the rail when Models is empty (graph.Config.Vdd).
	Vdd float64
	// Eval is the stage hook for graph.Config.Eval (nil = default CSM).
	Eval graph.EvalFunc
	// Assign records, per instance index, which calculator evaluates the
	// stage. Instance indices are stable across ECO edits.
	Assign []BackendKind
	// CSMStages/NLDMStages count the assignment (CSMStages+NLDMStages =
	// len(Assign)).
	CSMStages  int
	NLDMStages int

	// live declares the stages Eval solves with the CSM stage solve
	// (graph.Config.WithLiveStages): every stage of the csm kind, the
	// refined stages of the hybrid kind, none of the nldm kind.
	live func(idx int) bool
}

// Attribution maps instance name → backend kind for reporting.
func (p *BackendPlan) Attribution(nl *sta.Netlist) map[string]BackendKind {
	out := make(map[string]BackendKind, len(p.Assign))
	for i, k := range p.Assign {
		out[nl.Instances[i].Name] = k
	}
	return out
}

// GraphConfig is the graph build configuration realizing this plan. It
// declares the plan's CSM stages live, so a hook that wraps p.Eval (and
// passes its waves argument through) keeps their streaming.
func (p *BackendPlan) GraphConfig(workers int, modelFor func(string) (*csm.Model, error)) graph.Config {
	return p.graphConfig(graph.Config{Workers: workers, ModelFor: modelFor})
}

// graphConfig sets cfg's evaluator, rail and live stages to the plan's.
func (p *BackendPlan) graphConfig(cfg graph.Config) graph.Config {
	cfg.Eval, cfg.Vdd = p.Eval, p.Vdd
	return cfg.WithLiveStages(p.live)
}

// BackendResult couples a plan with the report its propagation produced.
// Graph is the propagated timing graph behind the report; like
// AnalyzeGraphCtx's return it retains full waveform state, so holders can
// re-materialize the bit-identical report later (Report is a pure read)
// but must never edit it.
type BackendResult struct {
	Plan   *BackendPlan
	Report *sta.Report
	Graph  *graph.TimingGraph
}

// PlanBackend resolves a backend spec against a netlist: characterizes
// (or accepts preloaded) tables and models, and — for the hybrid kind —
// propagates the whole circuit under the table calculator, classifies
// stages by slack against the margin, and assigns each stage its
// calculator. It returns the plan BackendGraph realizes and drops the
// table pass's graph.
func (e *Engine) PlanBackend(ctx context.Context, spec BackendSpec, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options) (*BackendPlan, error) {
	plan, _, err := e.plan(ctx, spec, nl, primary, opt, graph.Config{Workers: e.workers, ShareNetlist: true})
	return plan, err
}

// plan resolves a spec. For the hybrid kind it also returns the graph the
// table pass propagated (built with cfg) flipped to the plan; the other
// kinds return no graph.
func (e *Engine) plan(ctx context.Context, spec BackendSpec, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options, cfg graph.Config) (*BackendPlan, *graph.TimingGraph, error) {
	switch spec.Kind {
	case "", BackendCSM:
		models, err := e.ModelsForCtx(ctx, spec.Tech, nl, spec.CSM)
		if err != nil {
			return nil, nil, err
		}
		return &BackendPlan{Kind: BackendCSM, Models: models,
			Assign: assignAll(nl, BackendCSM), CSMStages: len(nl.Instances),
			live: func(int) bool { return true }}, nil, nil

	case BackendNLDM:
		ev, err := e.evaluatorFor(ctx, spec, nl)
		if err != nil {
			return nil, nil, err
		}
		return &BackendPlan{Kind: BackendNLDM, Vdd: ev.Vdd(), Eval: nldmEval(ev),
			Assign: assignAll(nl, BackendNLDM), NLDMStages: len(nl.Instances)}, nil, nil

	case BackendHybrid:
		return e.planHybrid(ctx, spec, nl, primary, opt, cfg)
	}
	return nil, nil, fmt.Errorf("engine: unknown backend %q", spec.Kind)
}

// assignAll routes every stage of nl to one calculator.
func assignAll(nl *sta.Netlist, k BackendKind) []BackendKind {
	assign := make([]BackendKind, len(nl.Instances))
	for i := range assign {
		assign[i] = k
	}
	return assign
}

// planHybrid: one table propagation on a graph built with cfg → slacks
// from that graph's arrivals and the candidate arcs its evaluations
// recorded → CSM models for the near-critical stages only → a per-index
// routing hook, installed on the graph in place. The graph comes back
// with only the flipped stages and their cone left to propagate.
func (e *Engine) planHybrid(ctx context.Context, spec BackendSpec, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options, cfg graph.Config) (*BackendPlan, *graph.TimingGraph, error) {
	span := obs.SpanFrom(ctx)
	ev, err := e.evaluatorFor(ctx, spec, nl)
	if err != nil {
		return nil, nil, err
	}

	// Only this pass records arcs: each stage writes its own slot, so the
	// level-parallel evaluations never share one, and the published plan's
	// hook records nothing.
	edges := make([][]nldm.StageEdge, len(nl.Instances))
	record := func(nlx *sta.Netlist, _ map[string]*csm.Model, idx int, waves map[string]wave.Waveform, _ csm.Load, _ float64, opt sta.Options) (wave.Waveform, int, error) {
		out, sw, es, err := ev.EvalStageEdges(nlx, idx, waves, opt)
		edges[idx] = es
		return out, sw, err
	}
	nldmSpan := span.Start("nldm_pass")
	g, _, err := e.realize(obs.WithSpan(ctx, nldmSpan), &BackendPlan{Vdd: ev.Vdd(), Eval: record}, nil, nl, primary, opt, cfg)
	nldmSpan.End()
	if err != nil {
		return nil, nil, fmt.Errorf("engine: hybrid NLDM pass: %w", err)
	}
	rep := g.Report()
	slacks, err := nldm.Slacks(nl, rep, edges)
	if err != nil {
		return nil, nil, err
	}
	margin := spec.Margin
	if margin <= 0 {
		// Default criticality window: 10% of the table pass's worst
		// output arrival — near-critical in the ECO sense.
		if _, w, ok := rep.WorstOutput(nl); ok && w > 0 {
			margin = w / 10
		}
	}

	assign := assignAll(nl, BackendNLDM)
	var flip []int
	var critical sta.Netlist // the near-critical stages, for model resolution
	for i, s := range slacks {
		if s <= margin {
			assign[i] = BackendCSM
			flip = append(flip, i)
			critical.Instances = append(critical.Instances, nl.Instances[i])
		}
	}
	csmCount := len(flip)

	// Characterize CSM models only for the cell types the near-critical
	// stages actually use.
	refineSpan := span.Start("csm_refine")
	refineSpan.LabelInt("csm_stages", int64(csmCount))
	refineSpan.LabelInt("nldm_stages", int64(len(assign)-csmCount))
	refineSpan.Label("margin", sta.FormatFloat(margin))
	defer refineSpan.End()
	var models map[string]*csm.Model
	if csmCount > 0 {
		if models, err = e.ModelsForCtx(obs.WithSpan(ctx, refineSpan), spec.Tech, &critical, spec.CSM); err != nil {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	plan := &BackendPlan{
		Kind: BackendHybrid, Margin: margin, Models: models, Vdd: ev.Vdd(),
		Eval: func(nlx *sta.Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt sta.Options) (wave.Waveform, int, error) {
			if assign[idx] == BackendCSM {
				return sta.EvalStageWithLoad(nlx, models, idx, waves, load, vdd, opt)
			}
			return ev.EvalStage(nlx, idx, waves, opt)
		},
		Assign: assign, CSMStages: csmCount, NLDMStages: len(assign) - csmCount,
		live: func(idx int) bool { return assign[idx] == BackendCSM },
	}
	// Refine in place: the near-critical stages flip to CSM on the graph
	// the table pass left (SetBackend also holds the models to its rail).
	if err := g.SetBackend(plan.Eval, plan.live, models, flip); err != nil {
		return nil, nil, fmt.Errorf("engine: hybrid: %w", err)
	}
	return plan, g, nil
}

// nldmEval adapts an evaluator to the graph's hook signature: the CSM
// arguments (models, precomputed load, vdd) are ignored — the evaluator
// carries its own tables, load model, and rail.
func nldmEval(ev *nldm.Evaluator) graph.EvalFunc {
	return func(nl *sta.Netlist, _ map[string]*csm.Model, idx int, waves map[string]wave.Waveform, _ csm.Load, _ float64, opt sta.Options) (wave.Waveform, int, error) {
		return ev.EvalStage(nl, idx, waves, opt)
	}
}

// evaluatorFor builds the NLDM evaluator for a spec: preloaded tables
// first, the characterization cache for everything else (including cell
// types ECO swaps introduce later).
func (e *Engine) evaluatorFor(ctx context.Context, spec BackendSpec, nl *sta.Netlist) (*nldm.Evaluator, error) {
	cfg := spec.NLDM
	if len(cfg.Slews) == 0 {
		cfg = nldm.DefaultConfig(spec.Tech)
	}
	libs, err := e.nldmForCtx(ctx, spec.Tech, nl, cfg, spec.Tables)
	if err != nil {
		return nil, err
	}
	return nldm.NewEvaluator(libs, func(cellType string) (*nldm.Library, error) {
		if lib, ok := spec.Tables[cellType]; ok {
			return lib, nil
		}
		lib, _, err := e.nldmGet(spec.Tech, cellType, cfg)
		return lib, err
	})
}

// BackendGraph is the one analysis path of every backend: it plans spec,
// builds the graph realizing the plan with cfg (the plan supplies cfg's
// Eval and Vdd), and propagates it. For the hybrid kind the graph is the
// one the table pass propagated, already flipped to the plan: Propagate
// re-evaluates only the refined stages' cone. The stats are the final
// propagation's. Either way the graph's state is bit-identical to
// graph.Build(nl, plan.Models, primary, opt, plan.GraphConfig(...)) plus
// Propagate.
func (e *Engine) BackendGraph(ctx context.Context, spec BackendSpec, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options, cfg graph.Config) (*BackendPlan, *graph.TimingGraph, graph.Stats, error) {
	planSpan := obs.SpanFrom(ctx).Start("plan")
	planSpan.Label("backend", string(cmp.Or(spec.Kind, BackendCSM)))
	plan, g, err := e.plan(obs.WithSpan(ctx, planSpan), spec, nl, primary, opt, cfg)
	planSpan.End()
	if err != nil {
		return nil, nil, graph.Stats{}, err
	}
	g, stats, err := e.realize(ctx, plan, g, nl, primary, opt, cfg)
	return plan, g, stats, err
}

// realize propagates the graph of a plan under "build" and "propagate"
// spans, building it with cfg unless the hybrid table pass supplied it.
func (e *Engine) realize(ctx context.Context, plan *BackendPlan, g *graph.TimingGraph, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options, cfg graph.Config) (*graph.TimingGraph, graph.Stats, error) {
	span := obs.SpanFrom(ctx)
	buildSpan := span.Start("build")
	var err error
	if g == nil {
		g, err = graph.Build(nl, plan.Models, primary, opt, plan.graphConfig(cfg))
	}
	buildSpan.End()
	if err != nil {
		return nil, graph.Stats{}, err
	}
	propSpan := span.Start("propagate")
	defer propSpan.End()
	stats, err := g.Propagate(obs.WithSpan(ctx, propSpan))
	if err != nil {
		return nil, graph.Stats{}, err
	}
	propSpan.LabelInt("evaluated", int64(stats.StagesEvaluated))
	return g, stats, nil
}

// AnalyzeBackend runs one full analysis under the chosen backend through
// BackendGraph on a graph that shares nl. The CSM kind builds the
// identical graph as AnalyzeCtx, so its reports are byte-for-byte the
// historical ones at any worker count.
func (e *Engine) AnalyzeBackend(ctx context.Context, spec BackendSpec, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options) (*BackendResult, error) {
	plan, g, stats, err := e.BackendGraph(ctx, spec, nl, primary, opt, e.oneShot())
	if err != nil {
		return nil, err
	}
	e.stageEvals.Add(g.StageEvals())
	e.streamed.Add(int64(stats.StagesStreamed))
	return &BackendResult{Plan: plan, Report: g.Report(), Graph: g}, nil
}

// --- NLDM characterization cache ---------------------------------------

// nldmCache singleflights NLDM table characterization, mirroring
// ModelCache's contract: one build per key, joiners block, errors cache.
type nldmCache struct {
	mu      sync.Mutex
	entries map[string]*nldmEntry
}

type nldmEntry struct {
	ready chan struct{}
	lib   *nldm.Library
	err   error
}

func newNLDMCache() *nldmCache {
	return &nldmCache{entries: map[string]*nldmEntry{}}
}

// nldmKey fingerprints a table characterization identity (cf. Key).
func nldmKey(tech cells.Tech, spec cells.Spec, cfg nldm.Config) string {
	return fmt.Sprintf("nldm|tech{%s vdd=%g n=%+v p=%+v wn=%g wp=%g}|cell{%s in=%v nch=%t npin=%v drive=%g}|cfg=%+v",
		tech.Name, tech.Vdd, tech.NMOS, tech.PMOS, tech.WNMin, tech.WPMin,
		spec.Name, spec.Inputs, spec.NonControllingHigh, spec.NonControllingPin, spec.Drive,
		cfg)
}

// nldmGet characterizes (at most once) the NLDM library of a cell type,
// reporting how the lookup was satisfied: OutcomeHit (including joins on
// an in-flight characterization) or OutcomeCharacterized.
func (e *Engine) nldmGet(tech cells.Tech, cellType string, cfg nldm.Config) (*nldm.Library, Outcome, error) {
	spec, err := cells.Get(cellType)
	if err != nil {
		return nil, "", err
	}
	c := e.nldm
	key := nldmKey(tech, spec, cfg)
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-ent.ready
		return ent.lib, OutcomeHit, ent.err
	}
	ent := &nldmEntry{ready: make(chan struct{})}
	c.entries[key] = ent
	c.mu.Unlock()

	ent.lib, ent.err = nldm.Characterize(tech, spec, cfg)
	if ent.err != nil {
		ent.err = fmt.Errorf("engine: characterize %s (nldm): %w", cellType, ent.err)
	}
	close(ent.ready)
	return ent.lib, OutcomeCharacterized, ent.err
}

// NLDMFor assembles one NLDM library per distinct cell type in the
// netlist: preloaded tables win, everything else characterizes through
// the engine's table cache, fanned out on the worker pool.
func (e *Engine) NLDMFor(tech cells.Tech, nl *sta.Netlist, cfg nldm.Config, preset map[string]*nldm.Library) (map[string]*nldm.Library, error) {
	return e.nldmForCtx(context.Background(), tech, nl, cfg, preset)
}

// nldmForCtx is NLDMFor with trace attribution, mirroring ModelsForCtx:
// an "nldm_tables" child of the context's span records the resolution,
// with one "nldm_table" grandchild per cell type labeled by how it was
// satisfied (preset, hit, or characterized).
func (e *Engine) nldmForCtx(ctx context.Context, tech cells.Tech, nl *sta.Netlist, cfg nldm.Config, preset map[string]*nldm.Library) (map[string]*nldm.Library, error) {
	var types []string
	seen := map[string]bool{}
	for _, inst := range nl.Instances {
		if !seen[inst.Type] {
			seen[inst.Type] = true
			types = append(types, inst.Type)
		}
	}
	tablesSpan := obs.SpanFrom(ctx).Start("nldm_tables")
	defer tablesSpan.End()
	libsArr := make([]*nldm.Library, len(types))
	errs := make([]error, len(types))
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for i, t := range types {
		wg.Add(1)
		go func(i int, t string) {
			defer wg.Done()
			sp := tablesSpan.Start("nldm_table")
			defer sp.End()
			sp.Label("cell", t)
			outcome, ok := Outcome("preset"), false
			if libsArr[i], ok = preset[t]; !ok {
				sem <- struct{}{}
				libsArr[i], outcome, errs[i] = e.nldmGet(tech, t, cfg)
				<-sem
			}
			sp.Label("outcome", string(outcome))
		}(i, t)
	}
	wg.Wait()

	libs := make(map[string]*nldm.Library, len(types))
	for i, t := range types {
		if errs[i] != nil {
			return nil, errs[i]
		}
		libs[t] = libsArr[i]
	}
	return libs, nil
}

// --- Canonical backend report ------------------------------------------

// BackendStep is one critical-path step of a backend report.
type BackendStep struct {
	Net      string `json:"net"`
	Instance string `json:"instance,omitempty"`
	Arrival  string `json:"arrival"`
	Backend  string `json:"backend"` // csm | nldm | input (primary inputs)
}

// BackendGolden is the canonical wire form of a backend analysis: the
// attribution and critical path the hybrid strategy is judged by, plus
// the standard golden report. Exact shortest round-trip floats and sorted
// map keys make equal results byte-identical (testdata/golden pins it).
type BackendGolden struct {
	Circuit      string            `json:"circuit"`
	Backend      string            `json:"backend"`
	Margin       string            `json:"margin"`
	Stages       int               `json:"stages"`
	CSMStages    int               `json:"csm_stages"`
	NLDMStages   int               `json:"nldm_stages"`
	Attribution  map[string]string `json:"attribution"`
	WorstOutput  string            `json:"worst_output,omitempty"`
	WorstArrival string            `json:"worst_arrival,omitempty"`
	CriticalPath []BackendStep     `json:"critical_path,omitempty"`
	Report       *sta.GoldenReport `json:"report"`
}

// CanonicalBackendReport assembles the canonical form of a result.
func CanonicalBackendReport(circuit string, nl *sta.Netlist, res *BackendResult) *BackendGolden {
	plan := res.Plan
	attr := make(map[string]string, len(plan.Assign))
	instKind := make(map[string]string, len(plan.Assign))
	for i, k := range plan.Assign {
		attr[nl.Instances[i].Name] = string(k)
		instKind[nl.Instances[i].Name] = string(k)
	}
	g := &BackendGolden{
		Circuit:     circuit,
		Backend:     string(plan.Kind),
		Margin:      sta.FormatFloat(plan.Margin),
		Stages:      len(plan.Assign),
		CSMStages:   plan.CSMStages,
		NLDMStages:  plan.NLDMStages,
		Attribution: attr,
		Report:      sta.CanonicalReport(circuit, res.Report),
	}
	if net, arr, ok := res.Report.WorstOutput(nl); ok {
		g.WorstOutput = net
		g.WorstArrival = sta.FormatFloat(arr)
		for _, step := range res.Report.CriticalPath(nl, net) {
			bk := "input"
			if step.Instance != "" {
				bk = instKind[step.Instance]
			}
			g.CriticalPath = append(g.CriticalPath, BackendStep{
				Net:      step.Net,
				Instance: step.Instance,
				Arrival:  sta.FormatFloat(step.Arrival),
				Backend:  bk,
			})
		}
	}
	return g
}

// MarshalBackendReport renders the canonical JSON bytes (two-space
// indent plus trailing newline — the golden framing).
func MarshalBackendReport(circuit string, nl *sta.Netlist, res *BackendResult) ([]byte, error) {
	data, err := json.MarshalIndent(CanonicalBackendReport(circuit, nl, res), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
