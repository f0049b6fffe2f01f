package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"time"

	"mcsm/internal/cells"
	"mcsm/internal/cliutil"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/netlist"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// STARequest is the POST /v1/sta body. Exactly one of Netlist or Gen
// selects the workload. Times are SI-suffixed strings ("2p", "2.6n") —
// parsed textually, so they carry the identical float bits a Go literal
// or CLI flag would, which is what extends the bit-exactness contract
// through the wire format.
type STARequest struct {
	// Name labels the report ("circuit" field of the response).
	// Default: the workload name (file-less, so "circuit" for netlists,
	// the generated name for gen workloads).
	Name string `json:"name,omitempty"`
	// Netlist is the workload source text in Format.
	Netlist string `json:"netlist,omitempty"`
	// Format of Netlist: "net" (native, default) or "bench" (ISCAS-85,
	// technology-mapped).
	Format string `json:"format,omitempty"`
	// Gen generates a seeded synthetic workload instead:
	// gates[:depth[:fanin[:seed[:inputs]]]].
	Gen string `json:"gen,omitempty"`
	// Config names the characterization profile: fast (default),
	// default, or coarse (the golden-fixture profile).
	Config string `json:"config,omitempty"`
	// Mode is "mis" (default) or "sis".
	Mode string `json:"mode,omitempty"`
	// Dt is the stage integration step (default "1p").
	Dt string `json:"dt,omitempty"`
	// Horizon pins the analysis window end; empty selects the CLI rule
	// (4 ns, widened to cover the mapped depth of bench/gen workloads).
	Horizon string `json:"horizon,omitempty"`
	// Slew is the primary-input transition time (default "80p").
	Slew string `json:"slew,omitempty"`
	// Stimulus selects the primary-input drive: "staggered" (corpus
	// stagger; default for bench/gen), "uniform" (all rise@1ns; default
	// for native netlists), or "c17" (the canonical c17 MIS drive shared
	// with the golden fixtures and perf probes).
	Stimulus string `json:"stimulus,omitempty"`
	// Arrivals overlays per-net overrides in the CLI syntax:
	// "a:rise@1n,b:fall@1.2n,c:high,d:low".
	Arrivals string `json:"arrivals,omitempty"`
	// Backend selects the delay calculator: "csm" (default; the golden
	// waveform path), "nldm" (table lookup), or "hybrid" (NLDM everywhere,
	// CSM for near-critical stages).
	Backend string `json:"backend,omitempty"`
	// Margin is the hybrid criticality threshold as an SI time ("150p");
	// only valid with backend "hybrid". Empty selects the default (10% of
	// the NLDM pass's worst arrival).
	Margin string `json:"margin,omitempty"`
	// Trace opts into per-phase tracing: the reply becomes a wrapper
	// object whose "report" field carries the byte-identical canonical
	// report and whose "trace" field is the span tree. Traced requests
	// never coalesce (each trace measures its own computation).
	Trace bool `json:"trace,omitempty"`
}

// staJob is a fully resolved STA request: every default applied, every
// field validated — the unit of coalescing and of computation.
type staJob struct {
	name     string
	format   string
	source   string          // netlist text ("" for gen workloads)
	gen      netlist.GenSpec // resolved generator spec (zero unless genSet)
	genSet   bool
	cfgName  string
	cfg      csm.Config
	mode     sta.Mode
	dt       float64
	horizon  float64 // 0 = the CLI auto rule
	slew     float64
	stimulus string
	arrivals string
	backend  engine.BackendKind
	margin   float64 // hybrid criticality threshold (0 = default)
	trace    bool    // wrap the reply with a span tree; bypasses coalescing
}

// resolveSTA validates a request into a job. All errors here are 400s.
func (s *Server) resolveSTA(req STARequest) (*staJob, error) {
	job := &staJob{name: req.Name, arrivals: req.Arrivals, trace: req.Trace}

	switch {
	case req.Netlist != "" && req.Gen != "":
		return nil, fmt.Errorf("netlist and gen are mutually exclusive")
	case req.Netlist == "" && req.Gen == "":
		return nil, fmt.Errorf("one of netlist or gen is required")
	case req.Gen != "":
		spec, err := cliutil.ParseGenSpec(req.Gen)
		if err != nil {
			return nil, err
		}
		job.gen, job.genSet = spec, true
		job.format = "bench"
	default:
		job.source = req.Netlist
		job.format = req.Format
		if job.format == "" {
			job.format = "net"
		}
		if job.format != "net" && job.format != "bench" {
			return nil, fmt.Errorf("unknown format %q (want net or bench)", req.Format)
		}
	}

	job.cfgName = req.Config
	if job.cfgName == "" {
		job.cfgName = "fast"
	}
	var err error
	if job.cfg, err = cliutil.CharConfig(job.cfgName); err != nil {
		return nil, err
	}

	switch req.Mode {
	case "", "mis":
		job.mode = sta.ModeMIS
	case "sis":
		job.mode = sta.ModeSIS
	default:
		return nil, fmt.Errorf("unknown mode %q (want mis or sis)", req.Mode)
	}

	if job.dt, err = cliutil.ParseDt(req.Dt); err != nil {
		return nil, fmt.Errorf("dt: %w", err)
	}
	if req.Horizon != "" {
		if job.horizon, err = cliutil.ParseSI(req.Horizon); err != nil {
			return nil, fmt.Errorf("horizon: %w", err)
		}
		if job.horizon <= 0 {
			return nil, fmt.Errorf("horizon must be positive")
		}
	}
	job.slew = cliutil.DefaultSlew
	if req.Slew != "" {
		if job.slew, err = cliutil.ParseSI(req.Slew); err != nil {
			return nil, fmt.Errorf("slew: %w", err)
		}
		if job.slew <= 0 {
			return nil, fmt.Errorf("slew must be positive")
		}
	}

	job.stimulus = req.Stimulus
	if job.stimulus == "" {
		if job.format == "bench" {
			job.stimulus = "staggered"
		} else {
			job.stimulus = "uniform"
		}
	}
	switch job.stimulus {
	case "uniform", "staggered", "c17":
	default:
		return nil, fmt.Errorf("unknown stimulus %q (want uniform, staggered, or c17)", req.Stimulus)
	}

	if job.backend, err = engine.ParseBackendKind(req.Backend); err != nil {
		return nil, err
	}
	if req.Margin != "" {
		if job.backend != engine.BackendHybrid {
			return nil, fmt.Errorf("margin is only valid with backend hybrid")
		}
		if job.margin, err = cliutil.ParseSI(req.Margin); err != nil {
			return nil, fmt.Errorf("margin: %w", err)
		}
		if job.margin <= 0 {
			return nil, fmt.Errorf("margin must be positive")
		}
	}
	return job, nil
}

// key fingerprints the resolved job for coalescing: two requests coalesce
// iff every analysis-relevant field agrees. The (large) source text
// enters through a 128-bit FNV, everything else literally.
func (j *staJob) key() string {
	h := fnv.New128a()
	h.Write([]byte(j.source))
	return fmt.Sprintf("sta|%s|%s|%x|%+v|%t|%s|%d|%b|%b|%b|%s|%s|%s|%b",
		j.name, j.format, h.Sum(nil), j.gen, j.genSet, j.cfgName,
		j.mode, j.dt, j.horizon, j.slew, j.stimulus, j.arrivals,
		j.backend, j.margin)
}

// netlistKey addresses the parsed-workload LRU: content hash for source
// text, the resolved spec for generated circuits.
func (j *staJob) netlistKey() string {
	if j.genSet {
		return fmt.Sprintf("gen|%+v", j.gen)
	}
	h := fnv.New128a()
	h.Write([]byte(j.source))
	return fmt.Sprintf("%s|%x", j.format, h.Sum(nil))
}

// workload resolves the job's netlist through the LRU.
func (s *Server) workload(j *staJob) (*cliutil.Workload, error) {
	return s.nets.getOrParse(j.netlistKey(), func() (*cliutil.Workload, error) {
		if j.genSet {
			return cliutil.GenWorkload(j.gen)
		}
		// The cached workload is shared by jobs with different display
		// names (the LRU key is content-only), so parse under a fixed
		// name; the per-job name is applied at response time.
		return cliutil.ParseWorkload("circuit", j.format, j.source)
	})
}

// analysisInput resolves what every analysis endpoint hands the engine
// for a job: the workload (through the LRU), the reply's display name
// (the workload's unless the job names one), the primary-input drive,
// and the analysis options.
func (s *Server) analysisInput(j *staJob) (*cliutil.Workload, string, map[string]wave.Waveform, sta.Options, error) {
	wl, err := s.workload(j)
	if err != nil {
		return nil, "", nil, sta.Options{}, err
	}
	horizon := wl.Horizon(j.horizon, 4e-9, j.slew)
	primary, err := j.primaryFor(wl, s.tech.Vdd, horizon)
	return wl, cmp.Or(j.name, wl.Name), primary, sta.Options{Mode: j.mode, Horizon: horizon, Dt: j.dt}, err
}

// primaryFor builds the job's primary-input drive.
func (j *staJob) primaryFor(wl *cliutil.Workload, vdd, horizon float64) (map[string]wave.Waveform, error) {
	var primary map[string]wave.Waveform
	switch j.stimulus {
	case "staggered":
		primary = netlist.Stimulus(wl.NL.PrimaryIn, vdd, j.slew, horizon)
	case "c17":
		primary = sta.C17Stimulus(vdd, horizon)
	default: // uniform
		primary = make(map[string]wave.Waveform, len(wl.NL.PrimaryIn))
		for _, net := range wl.NL.PrimaryIn {
			primary[net] = wave.SaturatedRamp(0, vdd, 1e-9, j.slew, horizon)
		}
	}
	if err := cliutil.ApplyArrivalSpec(primary, vdd, j.arrivals, j.slew, horizon); err != nil {
		return nil, err
	}
	var missing []string
	for _, net := range wl.NL.PrimaryIn {
		if _, ok := primary[net]; !ok {
			missing = append(missing, net)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("stimulus %q drives no waveform for primary inputs %v", j.stimulus, missing)
	}
	return primary, nil
}

// handleSTA serves POST /v1/sta.
func (s *Server) handleSTA(w http.ResponseWriter, r *http.Request) {
	s.metrics.staRequests.Add(1)
	var req STARequest
	if err := decodeJSON(r, &req); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.resolveSTA(req)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}

	// Traced requests bypass the flight group: a trace must measure its
	// own computation, and coalesced joiners must keep receiving pure
	// canonical bodies.
	if job.trace {
		s.metrics.staComputed.Add(1)
		s.reply(w, s.computeSTA(job))
		return
	}

	resp, joined := s.flights.do(r.Context(), job.key(), func() response {
		s.metrics.staComputed.Add(1)
		if s.computeGate != nil {
			s.computeGate(job.key())
		}
		return s.computeSTA(job)
	})
	if joined {
		s.metrics.staCoalesced.Add(1)
	}
	s.reply(w, resp)
}

// computeSTA runs one resolved job under a worker-pool slot through
// engine.AnalyzeBackend, the path of every backend, and materializes its
// response in the canonical encoding (warmGraph.marshal) — byte-identical
// to the CLI/golden path for the same inputs.
// A traced job additionally records a span tree and answers the traced
// wrapper (the canonical bytes embedded verbatim, see wrapTraced).
func (s *Server) computeSTA(job *staJob) response {
	// Warm-graph fast path: a retained propagated graph for this exact
	// analysis identity answers without parsing, building, propagating, or
	// even taking a worker-pool slot — and byte-identically to a cold run.
	if wg, ok := s.warmGraphFor(job); ok {
		return s.replyFromWarm(job, wg)
	}

	var tr *obs.Trace
	if job.trace {
		tr = obs.New("sta")
	}
	ctx, cancel := s.computeCtx()
	defer cancel()
	ctx = obs.WithSpan(ctx, tr.Root())

	queueSpan := tr.Root().Start("queue")
	if err := s.acquire(ctx); err != nil {
		return response{err: fmt.Errorf("queue: %w", err)}
	}
	queueSpan.End()
	defer s.release()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	wlSpan := tr.Root().Start("workload")
	wl, name, primary, opt, err := s.analysisInput(job)
	wlSpan.End()
	if err != nil {
		return response{err: err}
	}

	s.metrics.backendCounter(job.backend).Add(1)
	analysisStart := time.Now()
	res, err := s.eng.AnalyzeBackend(ctx, job.backendSpec(s.tech), wl.NL, primary, opt)
	s.metrics.backendHist(job.backend).ObserveSince(analysisStart)
	if err != nil {
		return response{err: err}
	}
	s.metrics.countHybrid(res.Plan)
	wg := &warmGraph{g: res.Graph, nl: wl.NL, plan: res.Plan, wlName: wl.Name}
	body, err := wg.marshal(name, res.Report)
	if err != nil {
		return response{err: err}
	}
	s.retainGraph(job, wg)
	return tracedResponse(body, tr)
}

// backendSpec assembles the engine backend spec a job implies.
func (j *staJob) backendSpec(tech cells.Tech) engine.BackendSpec {
	return engine.BackendSpec{Kind: j.backend, Tech: tech, CSM: j.cfg, Margin: j.margin}
}

// reply writes a materialized response (or its error).
func (s *Server) reply(w http.ResponseWriter, resp response) {
	if resp.err != nil {
		s.error(w, statusFor(resp.err), resp.err)
		return
	}
	w.Header().Set("Content-Type", resp.contentType)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// decodeJSON strictly decodes a request body (unknown fields are typos,
// not extensions — reject them so callers notice).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

func errMethod(r *http.Request) error {
	return fmt.Errorf("%s does not allow %s", r.URL.Path, r.Method)
}
