package service

import (
	"fmt"
	"hash/fnv"

	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/sta"
)

// The warm-graph layer: the fourth work-sharing tier, above the model
// cache, the netlist LRU, and request coalescing. Where coalescing shares
// a computation between requests that overlap in time, the warm-graph LRU
// shares it across time: the propagated graph.TimingGraph of a completed
// analysis is retained keyed by the full analysis identity (content hash +
// every analysis-relevant parameter, display name excluded), so a repeat
// request skips netlist resolution, model lookup, graph build, and
// propagation entirely — it re-materializes the report from retained
// waveform state, byte-identical to the cold run (Report is a pure read
// of immutable state; enforced by TestWarmGraphBitIdentity).
//
// Retained graphs are never edited: ECO sessions build their own private
// graphs, and the one-shot path has no mutation surface. Memory is
// bounded by Config.GraphCap (a propagated graph holds one waveform per
// net, the same order of state as an ECO session).

// warmGraph is one retained analysis, self-sufficient for replies: the
// propagated graph plus the netlist/plan the canonical marshal needs and
// the workload name used when a request doesn't carry its own.
type warmGraph struct {
	g      *graph.TimingGraph
	nl     *sta.Netlist
	plan   *engine.BackendPlan
	wlName string
}

// marshal renders the analysis's canonical reply from rep, the graph's
// report: the historical golden report for the csm backend, the
// attribution-bearing backend report for nldm and hybrid. Cold and warm
// replies both encode here, so they cannot pick different forms.
func (wg *warmGraph) marshal(name string, rep *sta.Report) ([]byte, error) {
	if wg.plan.Kind == engine.BackendCSM {
		return sta.MarshalGoldenReport(name, rep)
	}
	return engine.MarshalBackendReport(name, wg.nl, &engine.BackendResult{Plan: wg.plan, Report: rep, Graph: wg.g})
}

// graphKey fingerprints the analysis identity for warm-graph reuse: every
// field of the coalescing key except the display name (applied at marshal
// time, so differently-named requests for the same analysis share one
// graph) and the trace flag (traced requests measure their own
// computation and bypass this cache entirely).
func (j *staJob) graphKey() string {
	h := fnv.New128a()
	h.Write([]byte(j.source))
	return fmt.Sprintf("graph|%s|%x|%+v|%t|%s|%d|%b|%b|%b|%s|%s|%s|%b",
		j.format, h.Sum(nil), j.gen, j.genSet, j.cfgName,
		j.mode, j.dt, j.horizon, j.slew, j.stimulus, j.arrivals,
		j.backend, j.margin)
}

// graphStats snapshots the warm-graph LRU for /metrics (zeros when the
// layer is disabled).
func (s *Server) graphStats() lruStats {
	if s.graphs == nil {
		return lruStats{}
	}
	return s.graphs.stats()
}

// warmGraphFor looks up the retained graph for a job, when the layer is
// enabled and the job is eligible (untraced).
func (s *Server) warmGraphFor(job *staJob) (*warmGraph, bool) {
	if s.graphs == nil || job.trace {
		return nil, false
	}
	return s.graphs.get(job.graphKey())
}

// retainGraph offers a completed analysis to the warm LRU. Raced inserts
// keep the resident entry; evicted graphs simply drop their references.
func (s *Server) retainGraph(job *staJob, wg *warmGraph) {
	if s.graphs == nil || job.trace {
		return
	}
	s.graphs.putIfAbsent(job.graphKey(), wg)
}

// replyFromWarm materializes a response from a retained graph: the job's
// own name (or the workload default) applied to a freshly built — and
// bit-identical — canonical report. No worker-pool slot is taken: this
// path performs no netlist parse, no model resolution, no waveform
// propagation; it is a cache read.
func (s *Server) replyFromWarm(job *staJob, wg *warmGraph) response {
	name := job.name
	if name == "" {
		name = wg.wlName
	}
	body, err := wg.marshal(name, wg.g.Report())
	if err != nil {
		return response{err: err}
	}
	return response{status: 200, contentType: "application/json", body: body}
}
