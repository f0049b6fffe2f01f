// Package service is the timing-as-a-service layer: a concurrent HTTP/JSON
// front end over the evaluation stack (engine → sta/sweep → csm) that
// keeps the paper's characterized CSM models hot across requests.
//
// Endpoints:
//
//	POST /v1/sta    — netlist (native or .bench) or generator spec in,
//	                  bit-exact canonical STA report out. The response
//	                  bytes are identical to what the CLI/golden path
//	                  produces for the same inputs, at any worker count.
//	POST /v1/sweep   — MIS skew/slew/load grid spec in, surface out
//	                   (exact-float CSV or JSON).
//	POST /v1/char    — warm/characterize one cell model into the cache.
//	POST /v1/session — build a stateful ECO session: the workload is
//	                   analyzed once and retained as an incremental
//	                   timing graph (internal/graph).
//	POST /v1/eco     — apply an edit batch to a session; answers the
//	                   canonical delta report (changed nets + how much
//	                   of the circuit was re-evaluated).
//	GET  /healthz    — liveness.
//	GET  /metrics    — cache hit rates, coalescing, in-flight gauge,
//	                   session/ECO counters, throughput counters.
//
// Four layers of work-sharing stack up:
//
//  1. The engine's ModelCache (singleflight, optional JSON spill):
//     characterization runs at most once per model identity, server-wide.
//  2. A content-hash-keyed LRU of parsed+leveled netlists: repeat
//     analyses of the same source text skip parsing, mapping, and
//     levelization entirely.
//  3. Request coalescing: identical requests that overlap in time share
//     one computation and receive byte-identical response bodies.
//  4. The warm-reply LRU (warm.go): a repeat of a completed analysis is
//     answered from its retained encoded reply.
//
// Analyses run on a bounded worker pool (Config.MaxInFlight) with
// per-request deadlines and cooperative cancellation via
// engine.AnalyzeCtx; Close drains cleanly for graceful shutdown.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"mcsm/internal/cells"
	"mcsm/internal/engine"
)

// Config scopes a server.
type Config struct {
	// Workers is the engine worker-pool width per analysis
	// (0 = GOMAXPROCS, 1 = serial). Results are bit-identical either way.
	Workers int
	// CacheDir, when set, spills characterized models (binary artifact
	// plus JSON) and reloads them across server restarts.
	CacheDir string
	// MaxInFlight bounds the number of analyses computing concurrently;
	// excess requests queue (respecting their deadlines). Coalesced
	// joiners do not occupy slots. Default: max(2, GOMAXPROCS/2).
	MaxInFlight int
	// NetlistCap is the parsed-netlist LRU capacity in entries
	// (default 64).
	NetlistCap int
	// GraphCap is the warm LRU capacity: completed one-shot analyses whose
	// encoded replies are retained so repeat requests skip the entire
	// compute path (default 16; negative disables the layer — useful for
	// A/B benchmarking). Each entry holds one encoded reply.
	GraphCap int
	// Timeout is the per-request compute deadline (default 5 minutes).
	// It covers queue wait plus analysis, not characterization spill I/O.
	Timeout time.Duration
	// SessionCap bounds live ECO sessions; beyond it the least-recently-
	// used session is evicted (default 32). Sessions retain full per-net
	// waveform state, so this is the server's main memory knob.
	SessionCap int
	// SessionTTL expires sessions idle longer than this (default 15
	// minutes). Expiry is lazy: checked on access and before creates.
	SessionTTL time.Duration
	// Logf, when set, receives request logs and recovered diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0) / 2
		if c.MaxInFlight < 2 {
			c.MaxInFlight = 2
		}
	}
	if c.NetlistCap <= 0 {
		c.NetlistCap = 64
	}
	if c.GraphCap == 0 {
		c.GraphCap = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Minute
	}
	if c.SessionCap <= 0 {
		c.SessionCap = 32
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Server is one timing service instance. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	cfg        Config
	tech       cells.Tech
	eng        *engine.Engine
	nets       *netlistLRU
	replies    *lruCore[*warmReply] // nil when Config.GraphCap < 0
	flights    *flightGroup
	sessions   *sessionStore
	sessionSeq atomic.Int64
	sem        chan struct{}
	metrics    metrics
	start      time.Time

	baseCtx context.Context // canceled by Close: computations stop draining
	cancel  context.CancelFunc

	// computeGate, when non-nil, is called by every flight leader after
	// its in-flight entry is visible and before it computes — the hook the
	// coalescing tests use to hold a computation open deterministically.
	computeGate func(key string)
}

// New builds a server with its own engine (fresh or spill-backed model
// cache per Config.CacheDir).
func New(cfg Config) *Server {
	return NewWithEngine(cfg, nil)
}

// NewWithEngine builds a server on an existing engine, sharing its model
// cache and pool width — how mcsm-serve injects its flag-built engine and
// mcsm-bench's serve probe reuses the models the experiment session
// already characterized. cfg.Workers/CacheDir are ignored when eng is
// non-nil; cfg.Logf becomes the cache's diagnostics sink either way.
func NewWithEngine(cfg Config, eng *engine.Engine) *Server {
	cfg = cfg.withDefaults()
	if eng == nil {
		eng = engine.New(cfg.Workers, engine.NewSpillCache(cfg.CacheDir))
	}
	if cfg.Logf != nil {
		eng.Cache().SetLogf(cfg.Logf)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		tech:     cells.Default130(),
		eng:      eng,
		nets:     newNetlistLRU(cfg.NetlistCap),
		flights:  newFlightGroup(),
		sessions: newSessionStore(cfg.SessionCap, cfg.SessionTTL),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		start:    time.Now(),
		baseCtx:  ctx,
		cancel:   cancel,
	}
	if cfg.GraphCap > 0 {
		s.replies = newLRUCore[*warmReply](cfg.GraphCap)
	}
	s.metrics.init()
	return s
}

// Engine returns the evaluation engine (shared model cache included).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Close cancels every in-flight computation. In-process use only; the
// HTTP listener's graceful shutdown is the caller's job (http.Server).
func (s *Server) Close() { s.cancel() }

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sta", s.post("sta", s.handleSTA))
	mux.HandleFunc("/v1/sta:batch", s.post("sta_batch", s.handleSTABatch))
	mux.HandleFunc("/v1/sweep", s.post("sweep", s.handleSweep))
	mux.HandleFunc("/v1/char", s.post("char", s.handleChar))
	mux.HandleFunc("/v1/session", s.post("session", s.handleSession))
	mux.HandleFunc("/v1/eco", s.post("eco", s.handleEco))
	mux.HandleFunc("/v1/mc", s.post("mc", s.handleMC))
	mux.HandleFunc("/healthz", s.observe("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.observe("metrics", s.handleMetrics))
	return mux
}

// maxBody bounds request bodies: netlist sources are at most a few MB.
const maxBody = 32 << 20

// statusRecorder captures the response status so the observation layer
// can attribute errors per endpoint. Flush forwards to the underlying
// writer when it supports it (the MC streaming path needs it).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observe wraps a handler with the per-endpoint latency histogram and
// error breakdown. name must be one of endpointNames.
func (s *Server) observe(name string, h func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	hist, errs := s.metrics.endpointLat[name], s.metrics.endpointErr[name]
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		hist.ObserveSince(start)
		if rec.status >= 400 {
			errs.Add(1)
		}
	}
}

// post wraps a handler with method filtering, body limiting, request
// logging, and the observation layer.
func (s *Server) post(name string, h func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return s.observe(name, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.error(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires POST", r.URL.Path))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		start := time.Now()
		h(w, r)
		if s.cfg.Logf != nil {
			s.cfg.Logf("service: %s %s (%s)", r.Method, r.URL.Path, time.Since(start).Truncate(time.Microsecond))
		}
	})
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// error writes the JSON error envelope and counts it.
func (s *Server) error(w http.ResponseWriter, status int, err error) {
	s.metrics.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.Marshal(errorBody{Error: err.Error()})
	w.Write(append(data, '\n'))
}

// statusFor maps computation errors onto HTTP statuses: deadline → 504,
// shutdown → 503, everything else 400 (bad workload: parse errors,
// unknown cells, unanalyzable netlists — the stack validates inputs, so
// non-context errors are request faults).
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, errComputePanicked):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// acquire takes a worker-pool slot, respecting the compute context.
func (s *Server) acquire(ctx context.Context) error {
	s.metrics.queued.Add(1)
	defer s.metrics.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// computeCtx derives the context a computation runs under: the server's
// base context (so Close stops everything) plus the per-request timeout.
// It is deliberately not tied to the initiating connection — a coalesced
// computation may have many waiting clients, and the first client
// hanging up must not kill the shared work.
func (s *Server) computeCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(s.baseCtx, s.cfg.Timeout)
}
