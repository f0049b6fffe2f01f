package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcsm/internal/cells"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
)

// c17SessionRequest is the canonical session-create body the tests (and
// the golden eco fixture) use: the same coarse c17 workload as the golden
// STA request.
func c17SessionRequest(id string) SessionRequest {
	return SessionRequest{
		Session: id,
		STARequest: STARequest{
			Name:     "c17",
			Netlist:  sta.C17Netlist,
			Format:   "net",
			Config:   "coarse",
			Stimulus: "c17",
			Dt:       "2p",
			Horizon:  "4n",
		},
	}
}

// postStatus is postJSON reduced to the status code (the session tests
// branch on codes, not headers).
func postStatus(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	resp, body := postJSON(t, url, v)
	return resp.StatusCode, body
}

// TestSessionEcoRoundTrip drives the full stateful flow over HTTP and
// pins it against a directly-driven graph: the served delta bytes must be
// exactly what the in-process incremental layer produces for the same
// edits — and a follow-up eco must only touch its own cone.
func TestSessionEcoRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := postStatus(t, ts.URL+"/v1/session", c17SessionRequest("rt"))
	if status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}
	var created SessionResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Session != "rt" || created.Stages != 6 || created.Levels != 3 {
		t.Fatalf("create response %+v", created)
	}

	edits := []graph.Edit{
		{Op: "swap_cell", Inst: "G22", Type: "NOR2"},
		{Op: "set_load", Net: "n23", Cap: "3f"},
	}
	status, body = postStatus(t, ts.URL+"/v1/eco", EcoRequest{Session: "rt", Edits: edits})
	if status != http.StatusOK {
		t.Fatalf("eco: status %d: %s", status, body)
	}

	// Reference: the same edits against a directly-built graph over the
	// same coarse models (shared engine cache keeps this cheap).
	nl, primary, opt := testutil.C17Fixture(t)
	models, err := srv.Engine().ModelsFor(testutil.Tech(), nl, testutil.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The swap target's model, through the same shared cache the session
	// characterizes it from (so the bytes cannot differ).
	nor2, err := cells.Get("NOR2")
	if err != nil {
		t.Fatal(err)
	}
	models["NOR2"], err = srv.Engine().Cache().Get(testutil.Tech(), nor2, engine.KindFor(nor2), testutil.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(nl, models, primary, opt, graph.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	applied, err := g.ApplyBatch(edits)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := g.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.MarshalDelta(g.Delta("c17", applied, stats))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served delta drifted from the direct graph:\n%s\nvs\n%s", body, want)
	}

	// Second round: an endpoint-load tweak must re-evaluate one stage.
	status, body = postStatus(t, ts.URL+"/v1/eco", EcoRequest{
		Session: "rt",
		Edits:   []graph.Edit{{Op: "set_load", Net: "n22", Cap: "2f"}},
	})
	if status != http.StatusOK {
		t.Fatalf("eco 2: status %d: %s", status, body)
	}
	var delta graph.DeltaReport
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	if delta.StagesReevaluated != 1 || delta.StagesTotal != 6 {
		t.Errorf("second eco re-evaluated %d/%d stages, want 1/6", delta.StagesReevaluated, delta.StagesTotal)
	}
	if len(delta.ChangedNets) != 1 {
		t.Errorf("second eco changed nets %v, want just n22", delta.ChangedNets)
	}

	m := srv.Snapshot()
	if m.Requests.Session != 1 || m.Requests.Eco != 2 {
		t.Errorf("request counts %+v", m.Requests)
	}
	if m.Sessions.Active != 1 || m.Sessions.Created != 1 || m.Sessions.EcoRounds != 2 || m.Sessions.EcoEdits != 3 {
		t.Errorf("session metrics %+v", m.Sessions)
	}
	if m.Sessions.EcoStageEvals == 0 || m.Sessions.EcoNetsChanged == 0 {
		t.Errorf("eco economy counters empty: %+v", m.Sessions)
	}
	// The reference graph re-solved the session's stages over the same
	// cached models, so their DC operating points came from the memo.
	if m.StageDC.Hits == 0 {
		t.Errorf("stage DC counts %+v: want memo hits", m.StageDC)
	}
}

// TestSessionErrors covers the request-fault paths.
func TestSessionErrors(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Bad session id.
	status, body := postStatus(t, ts.URL+"/v1/session", c17SessionRequest("no spaces allowed"))
	if status != http.StatusBadRequest {
		t.Errorf("bad id: status %d: %s", status, body)
	}
	// Bad workload.
	bad := c17SessionRequest("x")
	bad.Netlist = "inst broken"
	if status, body = postStatus(t, ts.URL+"/v1/session", bad); status != http.StatusBadRequest {
		t.Errorf("bad netlist: status %d: %s", status, body)
	}
	// Duplicate id.
	if status, body = postStatus(t, ts.URL+"/v1/session", c17SessionRequest("dup")); status != http.StatusOK {
		t.Fatalf("create dup: status %d: %s", status, body)
	}
	if status, body = postStatus(t, ts.URL+"/v1/session", c17SessionRequest("dup")); status != http.StatusConflict {
		t.Errorf("duplicate id: status %d: %s", status, body)
	}
	// Eco against a missing session.
	status, body = postStatus(t, ts.URL+"/v1/eco", EcoRequest{
		Session: "ghost",
		Edits:   []graph.Edit{{Op: "set_load", Net: "n22", Cap: "1f"}},
	})
	if status != http.StatusNotFound {
		t.Errorf("missing session: status %d: %s", status, body)
	}
	// Eco with no edits.
	status, body = postStatus(t, ts.URL+"/v1/eco", EcoRequest{Session: "dup"})
	if status != http.StatusBadRequest {
		t.Errorf("empty edits: status %d: %s", status, body)
	}
	// Eco with an invalid edit: 400, session survives, next eco works.
	status, body = postStatus(t, ts.URL+"/v1/eco", EcoRequest{
		Session: "dup",
		Edits:   []graph.Edit{{Op: "swap_cell", Inst: "GHOST", Type: "NOR2"}},
	})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "unknown instance") {
		t.Errorf("invalid edit: status %d: %s", status, body)
	}
	status, body = postStatus(t, ts.URL+"/v1/eco", EcoRequest{
		Session: "dup",
		Edits:   []graph.Edit{{Op: "set_load", Net: "n22", Cap: "1f"}},
	})
	if status != http.StatusOK {
		t.Errorf("eco after failed batch: status %d: %s", status, body)
	}
}

// TestSessionTTLAndEviction exercises the lifecycle policies directly on
// the store (millisecond TTLs make the HTTP layer too racy to pin).
func TestSessionTTLAndEviction(t *testing.T) {
	st := newSessionStore(2, time.Minute)
	base := time.Unix(1000, 0)
	now := base
	st.now = func() time.Time { return now }

	mk := func(id string) *session { return &session{id: id, created: now} }
	if err := st.create(mk("a")); err != nil {
		t.Fatal(err)
	}
	if err := st.create(mk("a")); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := st.create(mk("b")); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, ok := st.get("a"); !ok {
		t.Fatal("a missing")
	}
	if err := st.create(mk("c")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.get("b"); ok {
		t.Error("b survived eviction at capacity 2")
	}
	if st.evicted.Load() != 1 {
		t.Errorf("evicted = %d, want 1", st.evicted.Load())
	}

	// TTL: advance past the idle window; both survivors expire.
	now = now.Add(2 * time.Minute)
	st.purge()
	if st.core.len() != 0 {
		t.Errorf("%d sessions survived the TTL sweep", st.core.len())
	}
	if st.expired.Load() != 2 {
		t.Errorf("expired = %d, want 2", st.expired.Load())
	}
	if _, ok := st.get("a"); ok {
		t.Error("expired session still served")
	}
}

// TestSessionConcurrentEco hammers one session from several clients: the
// per-session mutex must serialize the edits so every response is a valid
// delta and the final retained state equals the cold analysis of the
// final netlist (checked indirectly: eco rounds == requests, no errors).
func TestSessionConcurrentEco(t *testing.T) {
	srv := New(Config{Workers: 2, MaxInFlight: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := postStatus(t, ts.URL+"/v1/session", c17SessionRequest("conc")); status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, body)
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				cap := fmt.Sprintf("%df", 1+(c+k)%5)
				status, body := postStatus(t, ts.URL+"/v1/eco", EcoRequest{
					Session: "conc",
					Edits:   []graph.Edit{{Op: "set_load", Net: "n22", Cap: cap}},
				})
				if status != http.StatusOK {
					errs[c] = fmt.Errorf("status %d: %s", status, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Snapshot()
	if m.Sessions.EcoRounds != clients*3 {
		t.Errorf("eco rounds = %d, want %d", m.Sessions.EcoRounds, clients*3)
	}
}

// TestSessionAutoIDSkipsClaimedNames: a client squatting on the server's
// "s%06d" id space must not break auto-assigned creates — the generator
// mints past residents.
func TestSessionAutoIDSkipsClaimedNames(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := postStatus(t, ts.URL+"/v1/session", c17SessionRequest("s000001")); status != http.StatusOK {
		t.Fatalf("named create: status %d: %s", status, body)
	}
	status, body := postStatus(t, ts.URL+"/v1/session", c17SessionRequest(""))
	if status != http.StatusOK {
		t.Fatalf("auto create: status %d: %s", status, body)
	}
	var created SessionResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Session != "s000002" {
		t.Errorf("auto id = %q, want s000002 (minted past the squatted s000001)", created.Session)
	}
	if created.Nets != 11 {
		t.Errorf("nets = %d, want 11 (5 primaries + 6 stage outputs)", created.Nets)
	}
}
