package service

import (
	"fmt"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"mcsm/internal/cliutil"
	"mcsm/internal/graph"
)

// Stateful ECO sessions: POST /v1/session builds a retained timing graph
// (internal/graph) server-side and keeps it hot; POST /v1/eco applies an
// edit batch to it and answers the canonical delta report — the nets that
// changed and how much of the circuit was re-evaluated. Sessions are the
// service's answer to iterative design loops: the first analysis pays the
// full-circuit cost, every edit after that only its fanout cone.
//
// Lifecycle: the store holds at most Config.SessionCap sessions with
// least-recently-used eviction (the same lruCore as the parsed-workload
// cache) and expires sessions idle longer than Config.SessionTTL lazily —
// on access and on every create/metrics sweep. Each session serializes
// its own edits (one graph, one mutex); distinct sessions propagate
// concurrently, each under a worker-pool slot.

// session is one retained graph plus its bookkeeping. lastUsed is guarded
// by the store's clock sweep (atomic), mu serializes graph access.
type session struct {
	mu        sync.Mutex
	id        string
	name      string
	g         *graph.TimingGraph
	created   time.Time
	lastUsed  atomic.Int64 // unix nanos
	ecoRounds atomic.Int64
}

func (s *session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// sessionStore wraps the shared LRU core with TTL expiry.
type sessionStore struct {
	core    *lruCore[*session]
	ttl     time.Duration
	created atomic.Int64
	expired atomic.Int64
	evicted atomic.Int64
	now     func() time.Time // test hook
}

func newSessionStore(capacity int, ttl time.Duration) *sessionStore {
	return &sessionStore{core: newLRUCore[*session](capacity), ttl: ttl, now: time.Now}
}

// purge removes every session idle past the TTL, oldest-first. The LRU
// order is a recency order, so the sweep can stop at the first live one.
func (st *sessionStore) purge() {
	deadline := st.now().Add(-st.ttl).UnixNano()
	for {
		id, sess, ok := st.core.peekOldest()
		if !ok || sess.lastUsed.Load() > deadline {
			return
		}
		if _, ok := st.core.remove(id); ok {
			st.expired.Add(1)
		}
	}
}

// get returns a live session, touching it. Expired sessions are removed
// and reported as absent.
func (st *sessionStore) get(id string) (*session, bool) {
	st.purge()
	sess, ok := st.core.get(id)
	if !ok {
		return nil, false
	}
	sess.touch(st.now())
	return sess, true
}

// create registers a new session, evicting the least-recently-used ones
// beyond capacity. A still-live session under the same id is an error.
func (st *sessionStore) create(sess *session) error {
	st.purge()
	sess.touch(st.now())
	resident, evicted := st.core.putIfAbsent(sess.id, sess)
	if resident != sess {
		return fmt.Errorf("session %q already exists", sess.id)
	}
	st.created.Add(1)
	st.evicted.Add(int64(len(evicted)))
	return nil
}

// SessionRequest is the POST /v1/session body: the usual STA workload
// vocabulary (netlist/gen, config, stimulus, ...) plus an optional
// client-chosen session id. The server analyzes the workload once
// (cold), retains the graph, and answers the session handle.
type SessionRequest struct {
	STARequest
	// Session optionally names the session (letters, digits, '-', '_',
	// '.'; at most 64 chars). Default: a server-assigned id. Naming makes
	// scripted flows (CI smokes, edit-script replays) deterministic.
	Session string `json:"session,omitempty"`
}

// SessionResponse answers a session create.
type SessionResponse struct {
	Session    string  `json:"session"`
	Circuit    string  `json:"circuit"`
	Backend    string  `json:"backend"`
	Stages     int     `json:"stages"`
	Levels     int     `json:"levels"`
	Nets       int     `json:"nets"`
	Workers    int     `json:"workers"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// EcoRequest is the POST /v1/eco body: an edit batch against a session.
// The response is the canonical graph.DeltaReport encoding — the changed
// nets' golden measurements plus the re-evaluation economy stats,
// byte-deterministic for identical session state and edits (CI pins one
// against testdata/golden/c17_eco_reply.json).
type EcoRequest struct {
	Session string       `json:"session"`
	Edits   []graph.Edit `json:"edits"`
}

var sessionIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// sessionMetrics snapshots the session store for /metrics (purging first
// so Active reflects live sessions only).
func (s *Server) sessionMetrics() SessionMetrics {
	s.sessions.purge()
	return SessionMetrics{
		Active:         s.sessions.core.len(),
		Created:        s.sessions.created.Load(),
		Evicted:        s.sessions.evicted.Load(),
		Expired:        s.sessions.expired.Load(),
		EcoRounds:      s.metrics.ecoRounds.Load(),
		EcoEdits:       s.metrics.ecoEdits.Load(),
		EcoStageEvals:  s.metrics.ecoStageEvals.Load(),
		StagesStreamed: s.metrics.sessionStreamed.Load(),
		EcoNetsChanged: s.metrics.ecoNetsChanged.Load(),
	}
}

// handleSession serves POST /v1/session.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	s.metrics.sessionRequests.Add(1)
	var req SessionRequest
	if err := decodeJSON(r, &req); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	if req.Session != "" && !sessionIDPattern.MatchString(req.Session) {
		s.error(w, http.StatusBadRequest, fmt.Errorf("bad session id %q (want 1-64 of [A-Za-z0-9._-])", req.Session))
		return
	}
	job, err := s.resolveSTA(req.STARequest)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	if job.trace {
		// Session replies carry only the session handle; the retained
		// graph outlives the request, so there is no single computation
		// for a trace to describe.
		s.error(w, http.StatusBadRequest, fmt.Errorf("trace is not supported on /v1/session"))
		return
	}
	// Conflicting ids fail here, before the (expensive) cold analysis —
	// the authoritative check remains sessions.create below, this one
	// just refuses to burn a full propagation on a doomed request.
	if req.Session != "" {
		s.sessions.purge()
		if s.sessions.core.contains(req.Session) {
			s.error(w, http.StatusConflict, fmt.Errorf("session %q already exists", req.Session))
			return
		}
	}

	ctx, cancel := s.computeCtx()
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.error(w, statusFor(err), err)
		return
	}
	defer s.release()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	wl, name, primary, opt, err := s.analysisInput(job)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}

	// One shared graph-construction path with the CLIs (cliutil): the
	// netlist is cloned away from the shared parsed-workload cache, and
	// swap-introduced cell types characterize through the server-wide
	// model cache on demand. The backend-aware build retains the resolved
	// plan inside the graph's eval hook, so every ECO round of this
	// session keeps its backend.
	// The session-create cold propagation is deliberately NOT added to
	// the eco_* counters — those aggregate the per-edit economy, and a
	// full-circuit build would drown the signal.
	s.metrics.backendCounter(job.backend).Add(1)
	buildStart := time.Now()
	g, plan, stats, err := cliutil.BuildBackendGraphCtx(ctx, s.eng, s.tech, wl, job.backendSpec(s.tech), primary, opt)
	s.metrics.backendHist(job.backend).ObserveSince(buildStart)
	if err != nil {
		s.error(w, statusFor(err), err)
		return
	}
	s.metrics.sessionStreamed.Add(int64(stats.StagesStreamed))
	s.metrics.countHybrid(plan)

	// Register under the requested id, or mint auto ids until one is
	// free — a client may have claimed a name in the server's "s%06d"
	// space, so generated ids retry past residents instead of failing
	// someone who never chose a name.
	id := req.Session
	for {
		if id == "" {
			id = fmt.Sprintf("s%06d", s.sessionSeq.Add(1))
			if s.sessions.core.contains(id) {
				id = ""
				continue
			}
		}
		if err := s.sessions.create(&session{id: id, name: name, g: g, created: time.Now()}); err != nil {
			if req.Session != "" {
				s.error(w, http.StatusConflict, err)
				return
			}
			id = "" // lost a concurrent race for the minted id: mint again
			continue
		}
		break
	}
	levels, _ := g.Netlist().Levels()
	writeJSON(w, SessionResponse{
		Session:    id,
		Circuit:    name,
		Backend:    string(plan.Kind),
		Stages:     len(g.Netlist().Instances),
		Levels:     len(levels),
		Nets:       g.NetCount(),
		Workers:    s.eng.Workers(),
		TTLSeconds: s.cfg.SessionTTL.Seconds(),
	})
}

// handleEco serves POST /v1/eco.
func (s *Server) handleEco(w http.ResponseWriter, r *http.Request) {
	s.metrics.ecoRequests.Add(1)
	var req EcoRequest
	if err := decodeJSON(r, &req); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	if req.Session == "" {
		s.error(w, http.StatusBadRequest, fmt.Errorf("session is required"))
		return
	}
	if len(req.Edits) == 0 {
		s.error(w, http.StatusBadRequest, fmt.Errorf("edits must not be empty"))
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("no session %q (expired or never created)", req.Session))
		return
	}

	// One graph, one writer: edits on a session serialize here. The
	// session mutex is taken BEFORE a worker-pool slot so that queued
	// edits to one session wait without occupying slots other requests
	// could compute under. Edits of a failed batch that already applied
	// stay applied (the graph remains consistent); their effect lands in
	// the next successful delta.
	sess.mu.Lock()
	defer sess.mu.Unlock()

	ctx, cancel := s.computeCtx()
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.error(w, statusFor(err), err)
		return
	}
	defer s.release()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	applied, err := sess.g.ApplyBatch(req.Edits)
	s.metrics.ecoEdits.Add(int64(applied))
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	stats, err := sess.g.Propagate(ctx)
	if err != nil {
		s.error(w, statusFor(err), err)
		return
	}
	sess.ecoRounds.Add(1)
	s.metrics.ecoRounds.Add(1)
	s.metrics.ecoStageEvals.Add(int64(stats.StagesEvaluated))
	s.metrics.ecoNetsChanged.Add(int64(len(stats.ChangedNets)))
	s.metrics.sessionStreamed.Add(int64(stats.StagesStreamed))

	body, err := graph.MarshalDelta(sess.g.Delta(sess.name, applied, stats))
	if err != nil {
		s.error(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
