package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/obs"
)

// metrics is the server's live counter set (atomics; read racily and
// coherently enough for monitoring).
type metrics struct {
	staRequests      atomic.Int64
	staBatchRequests atomic.Int64
	staBatchItems    atomic.Int64
	staBatchDeduped  atomic.Int64
	staBatchStreamed atomic.Int64
	sweepRequests    atomic.Int64
	charRequests     atomic.Int64
	sessionRequests  atomic.Int64
	ecoRequests      atomic.Int64
	mcRequests       atomic.Int64
	staComputed      atomic.Int64
	sweepComputed    atomic.Int64
	mcComputed       atomic.Int64
	staCoalesced     atomic.Int64
	sweepCoalesced   atomic.Int64
	mcCoalesced      atomic.Int64
	mcStreamed       atomic.Int64
	mcTrials         atomic.Int64
	mcStageEvals     atomic.Int64
	sweepPoints      atomic.Int64
	ecoRounds        atomic.Int64
	ecoEdits         atomic.Int64
	ecoStageEvals    atomic.Int64
	ecoNetsChanged   atomic.Int64
	sessionStreamed  atomic.Int64
	errors           atomic.Int64
	inFlight         atomic.Int64
	queued           atomic.Int64

	// Per-backend analysis counts plus the hybrid stage economy (how many
	// stages went through each calculator across all hybrid analyses).
	backendCSM       atomic.Int64
	backendNLDM      atomic.Int64
	backendHybrid    atomic.Int64
	hybridCSMStages  atomic.Int64
	hybridNLDMStages atomic.Int64

	// Latency histograms (wall time per request / per analysis) and the
	// per-endpoint error breakdown. Keys are fixed at init, so handler
	// paths only ever read the maps — no lock needed.
	endpointLat map[string]*obs.Histogram
	backendLat  map[string]*obs.Histogram
	endpointErr map[string]*atomic.Int64
}

// endpointNames lists every instrumented handler; backendNames every
// delay calculator. Both key the latency/error maps and the /metrics
// sections, so the JSON shape is stable from the first request.
var (
	endpointNames = []string{"sta", "sta_batch", "sweep", "char", "session", "eco", "mc", "healthz", "metrics"}
	backendNames  = []string{string(engine.BackendCSM), string(engine.BackendNLDM), string(engine.BackendHybrid)}
)

// init allocates the fixed-key observation maps.
func (m *metrics) init() {
	m.endpointLat = make(map[string]*obs.Histogram, len(endpointNames))
	m.endpointErr = make(map[string]*atomic.Int64, len(endpointNames))
	for _, ep := range endpointNames {
		m.endpointLat[ep] = &obs.Histogram{}
		m.endpointErr[ep] = &atomic.Int64{}
	}
	m.backendLat = make(map[string]*obs.Histogram, len(backendNames))
	for _, b := range backendNames {
		m.backendLat[b] = &obs.Histogram{}
	}
}

// backendHist returns the latency histogram for a backend kind ("" = csm).
func (m *metrics) backendHist(kind engine.BackendKind) *obs.Histogram {
	if h, ok := m.backendLat[string(kind)]; ok {
		return h
	}
	return m.backendLat[string(engine.BackendCSM)]
}

// backendCounter maps a backend kind to its analysis counter.
func (m *metrics) backendCounter(kind engine.BackendKind) *atomic.Int64 {
	switch kind {
	case engine.BackendNLDM:
		return &m.backendNLDM
	case engine.BackendHybrid:
		return &m.backendHybrid
	}
	return &m.backendCSM
}

// countHybrid adds a hybrid plan's stage attribution to the hybrid stage
// counters; plans of the other backends leave them alone.
func (m *metrics) countHybrid(plan *engine.BackendPlan) {
	if plan.Kind != engine.BackendHybrid {
		return
	}
	m.hybridCSMStages.Add(int64(plan.CSMStages))
	m.hybridNLDMStages.Add(int64(plan.NLDMStages))
}

// BackendMetrics is the delay-backend section of /metrics.
type BackendMetrics struct {
	CSM    int64 `json:"csm"`
	NLDM   int64 `json:"nldm"`
	Hybrid int64 `json:"hybrid"`
	// Hybrid stage attribution totals: of all stages hybrid analyses
	// evaluated, how many went through each calculator.
	HybridCSMStages  int64 `json:"hybrid_csm_stages"`
	HybridNLDMStages int64 `json:"hybrid_nldm_stages"`
}

// ModelCacheMetrics mirrors engine.CacheStats plus the derived rate.
type ModelCacheMetrics struct {
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	DiskHits     int64   `json:"disk_hits"`
	SpillRejects int64   `json:"spill_rejects"`
	Entries      int     `json:"entries"`
	HitRate      float64 `json:"hit_rate"`
	// Characterized counts misses that ran a full characterization
	// rather than a spill reload (DiskHits).
	Characterized int64 `json:"characterized"`
}

// BatchMetrics is the /v1/sta:batch section of /metrics: request and
// item totals plus how much work batching itself eliminated (deduped =
// items served by another item's computation in the same batch).
type BatchMetrics struct {
	Requests int64 `json:"requests"`
	Items    int64 `json:"items"`
	Deduped  int64 `json:"deduped"`
	Streamed int64 `json:"streamed"`
}

// RequestCounts breaks request totals down by endpoint.
type RequestCounts struct {
	STA      int64 `json:"sta"`
	STABatch int64 `json:"sta_batch"`
	Sweep    int64 `json:"sweep"`
	Char     int64 `json:"char"`
	Session  int64 `json:"session"`
	Eco      int64 `json:"eco"`
	MC       int64 `json:"mc"`
}

// MCMetrics is the Monte-Carlo section of /metrics: per-run counters
// for the statistical layer.
type MCMetrics struct {
	Computed   int64 `json:"computed"`
	Coalesced  int64 `json:"coalesced"`
	Streamed   int64 `json:"streamed"`
	Trials     int64 `json:"trials"`
	StageEvals int64 `json:"stage_evals"`
}

// SessionMetrics is the stateful-session section of /metrics: lifecycle
// counters plus the ECO economy aggregate (stage evals per edit round vs
// what cold full analyses would have cost).
type SessionMetrics struct {
	Active  int   `json:"active"`
	Created int64 `json:"created"`
	Evicted int64 `json:"evicted"` // LRU capacity evictions
	Expired int64 `json:"expired"` // TTL expiries

	EcoRounds      int64 `json:"eco_rounds"`
	EcoEdits       int64 `json:"eco_edits"`
	EcoStageEvals  int64 `json:"eco_stage_evals"`
	EcoNetsChanged int64 `json:"eco_nets_changed"`
	// StagesStreamed counts stages that started while one of their inputs
	// was still being solved, over session builds and ECO rounds. It
	// depends on the schedule, so no reply carries it.
	StagesStreamed int64 `json:"stages_streamed"`
}

// LatencyMetrics is the latency section of /metrics: per-endpoint and
// per-backend wall-time histograms (count, mean, p50/p95/p99) plus the
// engine's stage-evaluation histogram, whose durations include the time
// a stage that started on a live input waited for its producer's
// samples. Quantiles are bucket upper
// bounds of the powers-of-√2 histogram, so they are exact with respect
// to the bucketing (≤ √2× the true sample).
type LatencyMetrics struct {
	Endpoints  map[string]obs.HistSnapshot `json:"endpoints"`
	Backends   map[string]obs.HistSnapshot `json:"backends"`
	StageEvals obs.HistSnapshot            `json:"stage_evals"`
	// ModelReloads times model-cache spill reloads (disk artifact →
	// validated in-memory model), the cost the binary format attacks.
	ModelReloads obs.HistSnapshot `json:"model_reloads"`
	// ModelCharacterizations times the model cache's characterizations,
	// the seconds a cold request for a new cell or profile waits on.
	ModelCharacterizations obs.HistSnapshot `json:"model_characterizations"`
}

// Metrics is the GET /metrics response: effectiveness of all three
// work-sharing layers plus throughput counters.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	MaxInFlight   int     `json:"max_in_flight"`
	InFlight      int64   `json:"in_flight"`
	Queued        int64   `json:"queued"`

	Requests RequestCounts `json:"requests"`
	Errors   int64         `json:"errors"`
	// ErrorsByEndpoint counts responses with status >= 400 per handler
	// (every endpoint present, zeros included, so dashboards see a
	// stable shape).
	ErrorsByEndpoint map[string]int64 `json:"errors_by_endpoint"`

	// Coalescing: computed counts actual computations; coalesced counts
	// requests that joined one. Ratio is served/computed (1.0 = no
	// sharing; >1 under concurrent identical load).
	STAComputed     int64   `json:"sta_computed"`
	STACoalesced    int64   `json:"sta_coalesced"`
	SweepComputed   int64   `json:"sweep_computed"`
	SweepCoalesced  int64   `json:"sweep_coalesced"`
	CoalescingRatio float64 `json:"coalescing_ratio"`

	Batch BatchMetrics `json:"batch"`

	ModelCache   ModelCacheMetrics `json:"model_cache"`
	NetlistCache lruStats          `json:"netlist_cache"`
	// GraphCache is the warm-reply LRU: hits are repeat analyses served
	// from a retained encoded reply without any computation.
	GraphCache lruStats       `json:"graph_cache"`
	Sessions   SessionMetrics `json:"sessions"`
	Backends   BackendMetrics `json:"backends"`
	MC         MCMetrics      `json:"mc"`
	Latency    LatencyMetrics `json:"latency"`

	StageEvals       int64   `json:"stage_evals"`
	StageEvalsPerSec float64 `json:"stage_evals_per_sec"`
	// StagesStreamed counts one-shot analysis stages that started while
	// one of their inputs was still being solved (sessions count theirs
	// under sessions).
	StagesStreamed    int64   `json:"stages_streamed"`
	SweepPointEvals   int64   `json:"sweep_point_evals"`
	SweepPointsPerSec float64 `json:"sweep_points_per_sec"`

	// StageDC counts CSM stage DC operating points read from a model's
	// memo, solved and stored, or solved because the stage's load is
	// not purely capacitive; the counts cover the whole process.
	StageDC csm.StageDCStats `json:"stage_dc"`
}

// Snapshot assembles the current metrics.
func (s *Server) Snapshot() Metrics {
	uptime := time.Since(s.start).Seconds()
	cs := s.eng.Cache().Stats()
	m := Metrics{
		UptimeSeconds: uptime,
		Workers:       s.eng.Workers(),
		MaxInFlight:   s.cfg.MaxInFlight,
		InFlight:      s.metrics.inFlight.Load(),
		Queued:        s.metrics.queued.Load(),
		Requests: RequestCounts{
			STA:      s.metrics.staRequests.Load(),
			STABatch: s.metrics.staBatchRequests.Load(),
			Sweep:    s.metrics.sweepRequests.Load(),
			Char:     s.metrics.charRequests.Load(),
			Session:  s.metrics.sessionRequests.Load(),
			Eco:      s.metrics.ecoRequests.Load(),
			MC:       s.metrics.mcRequests.Load(),
		},
		Errors:         s.metrics.errors.Load(),
		STAComputed:    s.metrics.staComputed.Load(),
		STACoalesced:   s.metrics.staCoalesced.Load(),
		SweepComputed:  s.metrics.sweepComputed.Load(),
		SweepCoalesced: s.metrics.sweepCoalesced.Load(),
		ModelCache: ModelCacheMetrics{
			Hits: cs.Hits, Misses: cs.Misses, DiskHits: cs.DiskHits,
			SpillRejects: cs.SpillRejects, Entries: cs.Entries, HitRate: cs.HitRate(),
			Characterized: cs.Characterized,
		},
		Batch: BatchMetrics{
			Requests: s.metrics.staBatchRequests.Load(),
			Items:    s.metrics.staBatchItems.Load(),
			Deduped:  s.metrics.staBatchDeduped.Load(),
			Streamed: s.metrics.staBatchStreamed.Load(),
		},
		NetlistCache: s.nets.stats(),
		GraphCache:   s.graphStats(),
		Sessions:     s.sessionMetrics(),
		Backends: BackendMetrics{
			CSM:              s.metrics.backendCSM.Load(),
			NLDM:             s.metrics.backendNLDM.Load(),
			Hybrid:           s.metrics.backendHybrid.Load(),
			HybridCSMStages:  s.metrics.hybridCSMStages.Load(),
			HybridNLDMStages: s.metrics.hybridNLDMStages.Load(),
		},
		MC: MCMetrics{
			Computed:   s.metrics.mcComputed.Load(),
			Coalesced:  s.metrics.mcCoalesced.Load(),
			Streamed:   s.metrics.mcStreamed.Load(),
			Trials:     s.metrics.mcTrials.Load(),
			StageEvals: s.metrics.mcStageEvals.Load(),
		},
		StageEvals:      s.eng.StageEvals(),
		StagesStreamed:  s.eng.StagesStreamed(),
		StageDC:         csm.ReadStageDCStats(),
		SweepPointEvals: s.metrics.sweepPoints.Load(),
		Latency: LatencyMetrics{
			Endpoints:              make(map[string]obs.HistSnapshot, len(endpointNames)),
			Backends:               make(map[string]obs.HistSnapshot, len(backendNames)),
			StageEvals:             s.eng.StageHist().Snapshot(),
			ModelReloads:           s.eng.Cache().ReloadLatency(),
			ModelCharacterizations: s.eng.Cache().CharacterizeLatency(),
		},
		ErrorsByEndpoint: make(map[string]int64, len(endpointNames)),
	}
	for _, ep := range endpointNames {
		m.Latency.Endpoints[ep] = s.metrics.endpointLat[ep].Snapshot()
		m.ErrorsByEndpoint[ep] = s.metrics.endpointErr[ep].Load()
	}
	for _, b := range backendNames {
		m.Latency.Backends[b] = s.metrics.backendLat[b].Snapshot()
	}
	// Every coalescable endpoint feeds the sharing ratio (MC included —
	// its runs are the most expensive computations to share).
	if computed := m.STAComputed + m.SweepComputed + m.MC.Computed; computed > 0 {
		served := m.STAComputed + m.STACoalesced + m.SweepComputed + m.SweepCoalesced +
			m.MC.Computed + m.MC.Coalesced
		m.CoalescingRatio = float64(served) / float64(computed)
	}
	if uptime > 0 {
		m.StageEvalsPerSec = float64(m.StageEvals) / uptime
		m.SweepPointsPerSec = float64(m.SweepPointEvals) / uptime
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.error(w, http.StatusMethodNotAllowed, errMethod(r))
		return
	}
	writeJSON(w, s.Snapshot())
}

// HealthzResponse is the GET /healthz body: liveness plus enough build
// identity to tell replicas apart in a fleet.
type HealthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	ModuleVersion string  `json:"module_version,omitempty"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
	VCSTime       string  `json:"vcs_time,omitempty"`
	VCSModified   bool    `json:"vcs_modified,omitempty"`
}

var (
	buildInfoOnce sync.Once
	buildInfo     HealthzResponse
)

// readBuildInfo resolves the binary's identity once: the Go toolchain
// version always, the module version and VCS stamp when the binary was
// built from a checkout (go test binaries typically carry neither).
func readBuildInfo() HealthzResponse {
	buildInfoOnce.Do(func() {
		buildInfo.GoVersion = runtime.Version()
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			buildInfo.ModuleVersion = v
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				buildInfo.VCSRevision = kv.Value
			case "vcs.time":
				buildInfo.VCSTime = kv.Value
			case "vcs.modified":
				buildInfo.VCSModified = kv.Value == "true"
			}
		}
	})
	return buildInfo
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.error(w, http.StatusMethodNotAllowed, errMethod(r))
		return
	}
	resp := readBuildInfo()
	resp.Status = "ok"
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(data, '\n'))
}
