package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/sta"
)

// c17Request is the canonical c17 STA request over the named backend —
// the service-level form of the hybrid smoke.
func c17Request(backend string) STARequest {
	return STARequest{
		Name:     "c17",
		Netlist:  sta.C17Netlist,
		Config:   "coarse",
		Dt:       "4p",
		Horizon:  "2n",
		Stimulus: "c17",
		Backend:  backend,
	}
}

// TestSTABackendCSMUnchanged: an explicit backend "csm" answers exactly
// the bytes of a backend-less request — the default path is the csm path.
func TestSTABackendCSMUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := invRequest()
	_, plain := postJSON(t, ts.URL+"/v1/sta", req)
	req.Backend = "csm"
	resp, explicit := postJSON(t, ts.URL+"/v1/sta", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, explicit)
	}
	if string(plain) != string(explicit) {
		t.Error("explicit csm backend changed the response bytes")
	}
}

// TestSTABackendHybrid: the hybrid backend answers the attribution-bearing
// backend report and moves the per-backend metrics.
func TestSTABackendHybrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sta", c17Request("hybrid"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep engine.BackendGolden
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "hybrid" || rep.Circuit != "c17" {
		t.Errorf("header %q/%q", rep.Backend, rep.Circuit)
	}
	if rep.Stages != rep.CSMStages+rep.NLDMStages || rep.Stages == 0 {
		t.Errorf("stage counts %d = %d + %d", rep.Stages, rep.CSMStages, rep.NLDMStages)
	}
	if len(rep.Attribution) != rep.Stages {
		t.Errorf("attribution has %d entries for %d stages", len(rep.Attribution), rep.Stages)
	}
	if rep.Report == nil || len(rep.CriticalPath) == 0 {
		t.Fatal("report or critical path missing")
	}

	m := getMetrics(t, ts.URL)
	if m.Backends.Hybrid != 1 {
		t.Errorf("hybrid counter = %d", m.Backends.Hybrid)
	}
	if m.Backends.HybridCSMStages+m.Backends.HybridNLDMStages != int64(rep.Stages) {
		t.Errorf("hybrid stage counters %d+%d, want %d",
			m.Backends.HybridCSMStages, m.Backends.HybridNLDMStages, rep.Stages)
	}
}

// TestSTABackendNLDM: the table backend serves a backend report with
// every stage attributed to nldm, and counts as an nldm analysis only:
// the hybrid stage counters stay at zero.
func TestSTABackendNLDM(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sta", c17Request("nldm"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep engine.BackendGolden
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "nldm" || rep.CSMStages != 0 || rep.NLDMStages != rep.Stages {
		t.Errorf("attribution %q %d/%d of %d", rep.Backend, rep.CSMStages, rep.NLDMStages, rep.Stages)
	}
	m := getMetrics(t, ts.URL).Backends
	if m.NLDM != 1 || m.Hybrid != 0 || m.HybridCSMStages != 0 || m.HybridNLDMStages != 0 {
		t.Errorf("backend metrics after one nldm analysis: %+v", m)
	}
}

// TestSTABackendValidation: unknown backends and misplaced margins are
// 400s before any computation.
func TestSTABackendValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []STARequest{
		{Netlist: invChain, Backend: "spice"},
		{Netlist: invChain, Backend: "csm", Margin: "100p"},
		{Netlist: invChain, Backend: "nldm", Margin: "100p"},
		{Netlist: invChain, Backend: "hybrid", Margin: "bogus"},
		{Netlist: invChain, Backend: "hybrid", Margin: "-1p"},
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/sta", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
}

// TestSTABackendCoalescingKey: identical jobs that differ only in backend
// must NOT coalesce into one computation.
func TestSTABackendCoalescingKey(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	reqCSM := c17Request("csm")
	reqHyb := c17Request("hybrid")
	jobCSM, err := s.resolveSTA(reqCSM)
	if err != nil {
		t.Fatal(err)
	}
	jobHyb, err := s.resolveSTA(reqHyb)
	if err != nil {
		t.Fatal(err)
	}
	if jobCSM.key() == jobHyb.key() {
		t.Error("csm and hybrid jobs share a coalescing key")
	}
	reqM := c17Request("hybrid")
	reqM.Margin = "150p"
	jobM, err := s.resolveSTA(reqM)
	if err != nil {
		t.Fatal(err)
	}
	if jobM.key() == jobHyb.key() {
		t.Error("margin does not enter the coalescing key")
	}
}

// TestSessionHybridBackend: a hybrid session retains its backend across
// ECO rounds — the eval hook lives in the graph for the session lifetime.
func TestSessionHybridBackend(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := struct {
		STARequest
		Session string `json:"session"`
	}{c17Request("hybrid"), "hyb1"}
	resp, body := postJSON(t, ts.URL+"/v1/session", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Backend != "hybrid" {
		t.Errorf("session backend %q", sr.Backend)
	}

	eco := EcoRequest{Session: "hyb1", Edits: []graph.Edit{
		{Op: "set_arrival", Net: "n1", Wave: "rise@1.2n"},
	}}
	resp, body = postJSON(t, ts.URL+"/v1/eco", eco)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eco: status %d: %s", resp.StatusCode, body)
	}
	var delta map[string]any
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	if delta["circuit"] != "c17" {
		t.Errorf("delta circuit %v", delta["circuit"])
	}
}

// TestMetricsBackendSection: /metrics carries the per-backend counters.
// The warm-graph layer is disabled: its key excludes the display name, so
// with it on the second request would be a cache read that (correctly)
// runs no backend and ticks no counter.
func TestMetricsBackendSection(t *testing.T) {
	_, ts := newTestServer(t, Config{GraphCap: -1})
	for i := 0; i < 2; i++ {
		req := invRequest()
		req.Name = fmt.Sprintf("inv%d", i) // distinct keys: no coalescing
		if resp, body := postJSON(t, ts.URL+"/v1/sta", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.Backends.CSM != 2 {
		t.Errorf("csm counter = %d, want 2", m.Backends.CSM)
	}
	if m.Backends.NLDM != 0 || m.Backends.Hybrid != 0 {
		t.Errorf("unexpected non-csm counts: %+v", m.Backends)
	}
}
