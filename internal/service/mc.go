package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mcsm/internal/mc"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
)

// MCRequest is the POST /v1/mc body: a full STA workload description
// (netlist/gen, stimulus, backend — every STARequest field) plus the
// Monte-Carlo parameter block of mc.Spec. Non-streaming responses are
// the canonical MC report — byte-identical to `mcsm-sta -mc` for the
// same inputs and pinned by testdata/golden/c17_mc_reply.json; with
// "stream": true the reply is NDJSON: one deterministic progress line
// per trial batch, then the canonical report as the final line.
type MCRequest struct {
	STARequest
	// Trials is the trial budget (required, ≥ 1).
	Trials int `json:"trials"`
	// Seed keys the per-instance PRNG streams.
	Seed uint64 `json:"seed,omitempty"`
	// SigmaVt is the 1σ threshold shift as an SI voltage ("15m" = 15 mV;
	// "" selects the 15 mV default).
	SigmaVt string `json:"sigma_vt,omitempty"`
	// SigmaStrength is the 1σ log-normal drive-strength factor ("" = 0.05).
	SigmaStrength string `json:"sigma_strength,omitempty"`
	// Batch is the streaming-update granularity in trials (0 = 32).
	Batch int `json:"batch,omitempty"`
	// Bins is the worst-path histogram bucket count (0 = 12).
	Bins int `json:"bins,omitempty"`
	// Stream switches the reply to NDJSON progress + final report.
	Stream bool `json:"stream,omitempty"`
}

// mcJob is a resolved MC request: the underlying STA job plus validated
// statistical parameters.
type mcJob struct {
	sta           *staJob
	spec          mc.Spec
	sigmaVt       float64
	sigmaStrength float64
	stream        bool
}

// resolveMC validates a request into a job. All errors here are 400s.
func (s *Server) resolveMC(req MCRequest) (*mcJob, error) {
	staJob, err := s.resolveSTA(req.STARequest)
	if err != nil {
		return nil, err
	}
	job := &mcJob{
		sta: staJob,
		spec: mc.Spec{
			Trials: req.Trials, Seed: req.Seed,
			SigmaVt: req.SigmaVt, SigmaStrength: req.SigmaStrength,
			Batch: req.Batch, Bins: req.Bins,
		},
		stream: req.Stream,
	}
	if err := job.spec.Validate(); err != nil {
		return nil, err
	}
	if job.sigmaVt, job.sigmaStrength, err = job.spec.Sigmas(); err != nil {
		return nil, err
	}
	if job.stream && job.sta.trace {
		// The stream's NDJSON lines are pinned deterministic content; a
		// trace has nowhere to ride along.
		return nil, fmt.Errorf("trace and stream are mutually exclusive")
	}
	return job, nil
}

// key fingerprints the job for coalescing. Stream is excluded: it only
// changes the response framing, and streamed requests never coalesce.
func (j *mcJob) key() string {
	return fmt.Sprintf("mc|%s|%d|%d|%b|%b|%d|%d",
		j.sta.key(), j.spec.Trials, j.spec.Seed,
		j.sigmaVt, j.sigmaStrength, j.spec.Batch, j.spec.Bins)
}

// mcConfig assembles the runner configuration a job implies.
func (s *Server) mcConfig(j *mcJob, onUpdate func(mc.Update)) mc.Config {
	return mc.Config{
		Backend:       j.sta.backendSpec(s.tech),
		Trials:        j.spec.Trials,
		Seed:          j.spec.Seed,
		SigmaVt:       j.sigmaVt,
		SigmaStrength: j.sigmaStrength,
		Batch:         j.spec.Batch,
		Bins:          j.spec.Bins,
		OnUpdate:      onUpdate,
	}
}

// handleMC serves POST /v1/mc.
func (s *Server) handleMC(w http.ResponseWriter, r *http.Request) {
	s.metrics.mcRequests.Add(1)
	var req MCRequest
	if err := decodeJSON(r, &req); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.resolveMC(req)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}

	if job.stream {
		s.streamMC(w, job)
		return
	}
	if job.sta.trace {
		// Same contract as /v1/sta: a traced run bypasses coalescing so
		// the trace measures its own computation.
		s.metrics.mcComputed.Add(1)
		s.reply(w, s.computeMC(job))
		return
	}
	resp, joined := s.flights.do(r.Context(), job.key(), func() response {
		s.metrics.mcComputed.Add(1)
		if s.computeGate != nil {
			s.computeGate(job.key())
		}
		return s.computeMC(job)
	})
	if joined {
		s.metrics.mcCoalesced.Add(1)
	}
	s.reply(w, resp)
}

// runMC executes a resolved job under a worker-pool slot: workload and
// stimulus resolution, the Monte-Carlo run itself, and the trial
// counters. Shared by the buffered and streaming paths. A non-nil
// trace's root span carries through the run, so the runner's plan /
// trials / batch spans attach under it.
func (s *Server) runMC(job *mcJob, onUpdate func(mc.Update), tr *obs.Trace) (string, *mc.Result, error) {
	ctx, cancel := s.computeCtx()
	defer cancel()
	ctx = obs.WithSpan(ctx, tr.Root())

	queueSpan := tr.Root().Start("queue")
	if err := s.acquire(ctx); err != nil {
		return "", nil, fmt.Errorf("queue: %w", err)
	}
	queueSpan.End()
	defer s.release()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	wlSpan := tr.Root().Start("workload")
	wl, name, primary, opt, err := s.analysisInput(job.sta)
	wlSpan.End()
	if err != nil {
		return "", nil, err
	}

	runStart := time.Now()
	res, err := mc.New(s.eng).Run(ctx, s.mcConfig(job, onUpdate), wl.NL, primary, opt)
	s.metrics.backendHist(job.sta.backend).ObserveSince(runStart)
	if err != nil {
		return "", nil, err
	}
	s.metrics.mcTrials.Add(int64(res.Trials))
	s.metrics.mcStageEvals.Add(res.StageEvals)
	return name, res, nil
}

// computeMC materializes the buffered (non-streaming) response: the
// canonical MC report bytes, wrapped with the span tree when traced.
func (s *Server) computeMC(job *mcJob) response {
	var tr *obs.Trace
	if job.sta.trace {
		tr = obs.New("mc")
	}
	name, res, err := s.runMC(job, nil, tr)
	if err != nil {
		return response{err: err}
	}
	body, err := mc.MarshalReport(name, res)
	if err != nil {
		return response{err: err}
	}
	return tracedResponse(body, tr)
}

// mcProgress is one NDJSON streaming update: exact-float strings in the
// golden style, deterministic content at any worker count (updates fire
// at watermark boundaries over the completed trial prefix).
type mcProgress struct {
	TrialsDone int    `json:"trials_done"`
	Trials     int    `json:"trials"`
	Switched   int    `json:"switched"`
	Mean       string `json:"mean"`
	Sigma      string `json:"sigma"`
	P50        string `json:"p50"`
	P95        string `json:"p95"`
	P99        string `json:"p99"`
}

// streamMC answers the streaming variant: headers first, then one
// progress line per batch watermark as the run advances, then the
// canonical report (compact) as the final line. Once streaming has
// begun the status is already written, so a failure surfaces as a
// terminal {"error": ...} line instead of an HTTP status.
func (s *Server) streamMC(w http.ResponseWriter, job *mcJob) {
	s.metrics.mcStreamed.Add(1)
	s.metrics.mcComputed.Add(1)
	if s.computeGate != nil {
		s.computeGate(job.key())
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// OnUpdate runs on runner worker goroutines, but calls are
	// serialized by the runner's watermark lock, so encoding straight
	// into the response is ordered.
	name, res, err := s.runMC(job, func(u mc.Update) {
		enc.Encode(mcProgress{
			TrialsDone: u.TrialsDone,
			Trials:     u.Trials,
			Switched:   u.Switched,
			Mean:       sta.FormatFloat(u.Mean),
			Sigma:      sta.FormatFloat(u.Sigma),
			P50:        sta.FormatFloat(u.P50),
			P95:        sta.FormatFloat(u.P95),
			P99:        sta.FormatFloat(u.P99),
		})
		if flusher != nil {
			flusher.Flush()
		}
	}, nil)
	if err != nil {
		s.metrics.errors.Add(1)
		enc.Encode(errorBody{Error: err.Error()})
		return
	}
	enc.Encode(mc.CanonicalResult(name, res))
}
