package main

import (
	"context"
	"fmt"
	"sort"

	"mcsm/internal/cells"
	"mcsm/internal/cliutil"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/netlist"
	"mcsm/internal/service"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// analysis is the direct-engine form of one STARequest the benchmark
// sends: the same netlist, models, stimulus and options the service
// resolves the request to, so its reference bytes can be computed
// without HTTP. It mirrors the request defaults documented on
// service.STARequest for the fields the workloads use.
type analysis struct {
	name    string
	wl      *cliutil.Workload
	spec    engine.BackendSpec
	primary map[string]wave.Waveform
	opt     sta.Options
}

func resolve(req service.STARequest, tech cells.Tech) (*analysis, error) {
	format := req.Format
	if format == "" {
		format = "net"
	}
	wl, err := cliutil.ParseWorkload("circuit", format, req.Netlist)
	if err != nil {
		return nil, err
	}
	cfg, err := cliutil.CharConfig(req.Config)
	if err != nil {
		return nil, err
	}
	kind, err := engine.ParseBackendKind(req.Backend)
	if err != nil {
		return nil, err
	}
	a := &analysis{name: req.Name, wl: wl, spec: engine.BackendSpec{Kind: kind, Tech: tech, CSM: cfg}}
	if req.Margin != "" {
		if a.spec.Margin, err = cliutil.ParseSI(req.Margin); err != nil {
			return nil, err
		}
	}
	if a.opt.Dt, err = cliutil.ParseDt(req.Dt); err != nil {
		return nil, err
	}
	var horizon float64
	if req.Horizon != "" {
		if horizon, err = cliutil.ParseSI(req.Horizon); err != nil {
			return nil, err
		}
	}
	a.opt.Horizon = wl.Horizon(horizon, 4e-9, cliutil.DefaultSlew)
	a.opt.Mode = sta.ModeMIS

	stimulus := req.Stimulus
	if stimulus == "" {
		stimulus = map[string]string{"bench": "staggered", "net": "uniform"}[format]
	}
	switch stimulus {
	case "c17":
		a.primary = sta.C17Stimulus(tech.Vdd, a.opt.Horizon)
	case "staggered":
		a.primary = netlist.Stimulus(wl.NL.PrimaryIn, tech.Vdd, cliutil.DefaultSlew, a.opt.Horizon)
	default:
		return nil, fmt.Errorf("stimulus %q is not used by the benchmark", stimulus)
	}
	if err := cliutil.ApplyArrivalSpec(a.primary, tech.Vdd, req.Arrivals, cliutil.DefaultSlew, a.opt.Horizon); err != nil {
		return nil, err
	}
	return a, nil
}

// cellTypes lists the distinct cell types of the analysis netlist.
func (a *analysis) cellTypes() []string {
	seen := map[string]bool{}
	var out []string
	for _, inst := range a.wl.NL.Instances {
		if !seen[inst.Type] {
			seen[inst.Type] = true
			out = append(out, inst.Type)
		}
	}
	sort.Strings(out)
	return out
}

// modelFor fetches a CSM model through the engine's cache, as the
// service's session graphs do for cell types swap_cell introduces.
func modelFor(eng *engine.Engine, tech cells.Tech, cellType string, cfg csm.Config) (*csm.Model, error) {
	spec, err := cells.Get(cellType)
	if err != nil {
		return nil, err
	}
	return eng.Cache().Get(tech, spec, engine.KindFor(spec), cfg)
}

// timePlan records, in the traced mode, an engine.plan span of the
// set-up around resolving the analysis's backend plan: the model lookup
// for csm, and for hybrid the whole-circuit NLDM pass that classifies
// stages — work the service does once per analysis, in set-up here.
func timePlan(ctx context.Context, e *env, a *analysis, tr *tracer) error {
	if tr == nil {
		return nil
	}
	sp := tr.begin("engine.plan", setupReq, 0)
	_, err := e.srv.Engine().PlanBackend(ctx, a.spec, a.wl.NL, a.primary, a.opt)
	sp.end()
	return err
}

// refGraph is a propagated reference analysis: enough to materialize its
// canonical report again, as the service's warm path does.
type refGraph struct {
	name string
	g    *graph.TimingGraph
	nl   *sta.Netlist
	plan *engine.BackendPlan // nil for the csm backend
}

// reference computes the canonical reply bytes of an analysis through the
// engine's one-shot entry points, the path the service's bytes must match.
func reference(ctx context.Context, eng *engine.Engine, a *analysis) ([]byte, *refGraph, error) {
	nl := a.wl.NL
	if a.spec.Kind == engine.BackendCSM {
		models, err := eng.ModelsForCtx(ctx, a.spec.Tech, nl, a.spec.CSM)
		if err != nil {
			return nil, nil, err
		}
		g, err := eng.AnalyzeGraphCtx(ctx, nl, models, a.primary, a.opt)
		if err != nil {
			return nil, nil, err
		}
		body, err := sta.MarshalGoldenReport(a.name, g.Report())
		return body, &refGraph{name: a.name, g: g, nl: nl}, err
	}
	res, err := eng.AnalyzeBackend(ctx, a.spec, nl, a.primary, a.opt)
	if err != nil {
		return nil, nil, err
	}
	body, err := engine.MarshalBackendReport(a.name, nl, res)
	return body, &refGraph{name: a.name, g: res.Graph, nl: nl, plan: res.Plan}, err
}

// marshal materializes the canonical report of a retained reference
// graph, with one span each around TimingGraph.Report and the marshal.
func (r *refGraph) marshal(tr *tracer, req int, parent int64) ([]byte, error) {
	sp := tr.begin("sta.report", req, parent)
	rep := r.g.Report()
	sp.end()
	sp = tr.begin("sta.marshal", req, parent)
	defer sp.end()
	if r.plan == nil {
		return sta.MarshalGoldenReport(r.name, rep)
	}
	return engine.MarshalBackendReport(r.name, r.nl, &engine.BackendResult{Plan: r.plan, Report: rep, Graph: r.g})
}

// replayAnalysis recomputes an analysis call by call through the layers'
// public functions — model resolution or backend planning, graph build,
// propagation with every stage evaluation timed, report and marshal —
// recording one span around each call.
func replayAnalysis(ctx context.Context, eng *engine.Engine, a *analysis, tr *tracer, req int, parent int64) ([]byte, error) {
	nl := a.wl.NL
	sp := tr.begin("engine.plan", req, parent)
	plan, err := eng.PlanBackend(ctx, a.spec, nl, a.primary, a.opt)
	sp.end()
	if err != nil {
		return nil, err
	}
	cfg := plan.GraphConfig(eng.Workers(), nil)
	cfg.ShareNetlist = true
	ev := tr.evalHook(plan.Eval, plan.Assign)
	cfg.Eval = ev.eval
	sp = tr.begin("graph.build", req, parent)
	g, err := graph.Build(nl, plan.Models, a.primary, a.opt, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	if _, err := ev.propagate(ctx, g, req, parent); err != nil {
		return nil, err
	}
	ref := &refGraph{name: a.name, g: g, nl: nl}
	if a.spec.Kind != engine.BackendCSM {
		ref.plan = plan
	}
	return ref.marshal(tr, req, parent)
}
