package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// TestTracedSTAByteIdentity is the observability layer's core contract in
// miniature: against one server, an untraced request and a traced request
// must agree byte-for-byte on the canonical report — the trace rides in a
// wrapper, never inside the report.
func TestTracedSTAByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, plain := postJSON(t, ts.URL+"/v1/sta", invRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced status %d: %s", resp.StatusCode, plain)
	}

	req := invRequest()
	req.Trace = true
	resp, traced := postJSON(t, ts.URL+"/v1/sta", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced status %d: %s", resp.StatusCode, traced)
	}
	var reply TracedReply
	if err := json.Unmarshal(traced, &reply); err != nil {
		t.Fatalf("traced reply: %v\n%s", err, traced)
	}
	if reply.Trace == nil || reply.Trace.Name != "sta" {
		t.Fatalf("want an sta span tree, got %+v", reply.Trace)
	}
	if len(reply.Trace.Children) == 0 {
		t.Error("sta trace has no child spans (expected queue/workload/analysis phases)")
	}
	got := append(append([]byte(nil), reply.Report...), '\n')
	if !bytes.Equal(got, plain) {
		t.Errorf("traced report differs from untraced reply\ntraced:  %s\nplain: %s", got, plain)
	}
}

// TestTracedMCByteIdentity extends the wrapper contract to /v1/mc.
func TestTracedMCByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, plain := postJSON(t, ts.URL+"/v1/mc", mcRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced status %d: %s", resp.StatusCode, plain)
	}

	req := mcRequest()
	req.Trace = true
	resp, traced := postJSON(t, ts.URL+"/v1/mc", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced status %d: %s", resp.StatusCode, traced)
	}
	var reply TracedReply
	if err := json.Unmarshal(traced, &reply); err != nil {
		t.Fatalf("traced reply: %v\n%s", err, traced)
	}
	if reply.Trace == nil || reply.Trace.Name != "mc" {
		t.Fatalf("want an mc span tree, got %+v", reply.Trace)
	}
	got := append(append([]byte(nil), reply.Report...), '\n')
	if !bytes.Equal(got, plain) {
		t.Error("traced MC report differs from untraced reply")
	}
}

// TestTraceStreamConflict: trace and stream are mutually exclusive on
// /v1/mc — the NDJSON stream has nowhere to carry a span tree.
func TestTraceStreamConflict(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := mcRequest()
	req.Trace = true
	req.Stream = true
	resp, body := postJSON(t, ts.URL+"/v1/mc", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("mutually exclusive")) {
		t.Errorf("error body %s", body)
	}
}

// TestSessionRejectsTrace: /v1/session has no single computation a trace
// could describe, so trace requests fail fast.
func TestSessionRejectsTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sta := invRequest()
	sta.Trace = true
	resp, body := postJSON(t, ts.URL+"/v1/session", SessionRequest{STARequest: sta})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("not supported")) {
		t.Errorf("error body %s", body)
	}
}

// TestMetricsLatencyAndErrors: the latency section carries per-endpoint
// and per-backend histograms with a stable key set, and errors_by_endpoint
// attributes failures to the handler that produced them.
func TestMetricsLatencyAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/sta", invRequest()); resp.StatusCode != http.StatusOK {
		t.Fatalf("sta status %d: %s", resp.StatusCode, body)
	}
	// A malformed request lands in the sta error bucket.
	if resp, _ := postJSON(t, ts.URL+"/v1/sta", map[string]any{"bogus_field": 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus request status %d, want 400", resp.StatusCode)
	}
	batch := BatchSTARequest{Items: []STARequest{invRequest(), invRequest()}}
	if resp, body := postJSON(t, ts.URL+"/v1/sta:batch", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}

	m := getMetrics(t, ts.URL)
	for _, ep := range endpointNames {
		if _, ok := m.Latency.Endpoints[ep]; !ok {
			t.Errorf("latency.endpoints missing %q", ep)
		}
		if _, ok := m.ErrorsByEndpoint[ep]; !ok {
			t.Errorf("errors_by_endpoint missing %q", ep)
		}
	}
	for _, b := range backendNames {
		if _, ok := m.Latency.Backends[b]; !ok {
			t.Errorf("latency.backends missing %q", b)
		}
	}
	sta := m.Latency.Endpoints["sta"]
	if sta.Count < 2 {
		t.Errorf("sta latency count %d, want >= 2", sta.Count)
	}
	if sta.P50Ms <= 0 || sta.P99Ms < sta.P50Ms {
		t.Errorf("sta quantiles implausible: p50 %g ms, p99 %g ms", sta.P50Ms, sta.P99Ms)
	}
	if n := m.Latency.Endpoints["sta_batch"].Count; n < 1 {
		t.Errorf("sta_batch latency count %d, want >= 1", n)
	}
	if csm := m.Latency.Backends["csm"]; csm.Count < 1 {
		t.Errorf("csm backend latency count %d, want >= 1", csm.Count)
	}
	if m.ErrorsByEndpoint["sta"] < 1 {
		t.Errorf("errors_by_endpoint[sta] = %d, want >= 1", m.ErrorsByEndpoint["sta"])
	}
	if m.Latency.StageEvals.Count < 1 {
		t.Errorf("stage_evals histogram empty (count %d)", m.Latency.StageEvals.Count)
	}
}

// TestHealthzBuildInfo: /healthz reports the running toolchain (always
// known) alongside liveness; module/VCS fields are best-effort and absent
// under `go test`.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.GoVersion != runtime.Version() {
		t.Errorf("go_version %q, want %q", h.GoVersion, runtime.Version())
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime %g", h.UptimeSeconds)
	}
}

// TestCoalescingRatioIncludesMC: the sharing ratio aggregates every
// coalescable endpoint — a server whose only sharing happened on /v1/mc
// must not report 1.0.
func TestCoalescingRatioIncludesMC(t *testing.T) {
	s := NewWithEngine(Config{}, testEngine())
	defer s.Close()
	s.metrics.mcComputed.Store(2)
	s.metrics.mcCoalesced.Store(6)
	m := s.Snapshot()
	if want := 4.0; m.CoalescingRatio != want {
		t.Errorf("coalescing ratio %g, want %g (mc: 2 computed, 6 coalesced)", m.CoalescingRatio, want)
	}
}

// TestMetricsSnapshotConcurrent exercises Snapshot against live handlers
// under the race detector: concurrent traced and untraced requests,
// healthz probes, and snapshots must not race on the latency maps or
// histograms.
func TestMetricsSnapshotConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		req := invRequest()
		req.Trace = i%2 == 0
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sta", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("sta status %d", resp.StatusCode)
			}
		}(body)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				_ = s.Snapshot()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
}
