package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcsm/internal/engine"
	"mcsm/internal/sta"
	"mcsm/internal/sweep"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

// invChain is the cheap test workload: two SIS inverters, one
// characterization, short window.
const invChain = `
input a
output y
inst U1 INV n1 a
inst U2 INV y n1
`

// sharedEngine backs every test server so each model characterizes once
// per test binary, exactly how production shares one engine across
// requests.
var (
	engOnce   sync.Once
	sharedEng *engine.Engine
)

func testEngine() *engine.Engine {
	engOnce.Do(func() { sharedEng = engine.New(0, nil) })
	return sharedEng
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWithEngine(cfg, testEngine())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// invRequest is the canonical cheap STA request body.
func invRequest() STARequest {
	return STARequest{
		Name:    "invchain",
		Netlist: invChain,
		Config:  "coarse",
		Dt:      "4p",
		Horizon: "2n",
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getMetrics(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSTAServesCanonicalBytes: the service response must be byte-identical
// to the canonical encoder run over a direct engine analysis of the same
// job — the in-process form of the golden contract (the fixture-level
// form lives in the repo root's golden tests).
func TestSTAServesCanonicalBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sta", invRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}

	nl, err := sta.ParseNetlist(strings.NewReader(invChain))
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine()
	models, err := eng.ModelsFor(testutil.Tech(), nl, testutil.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	primary := map[string]wave.Waveform{
		"a": wave.SaturatedRamp(0, testutil.Tech().Vdd, 1e-9, 80e-12, 2e-9),
	}
	rep, err := eng.Analyze(nl, models, primary, sta.Options{Horizon: 2e-9, Dt: 4e-12})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sta.MarshalGoldenReport("invchain", rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("service bytes differ from the direct engine path:\n%s\nvs\n%s", body, want)
	}
}

// TestSTARepeatBitIdentical: a later identical request (no coalescing —
// strictly sequential) must reproduce the same bytes. With the warm-graph
// layer enabled (default) the repeat is served from the retained graph;
// with it disabled the repeat recomputes through the netlist LRU and warm
// model cache. Both paths must answer identical bytes.
func TestSTARepeatBitIdentical(t *testing.T) {
	t.Run("warm graph", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		_, first := postJSON(t, ts.URL+"/v1/sta", invRequest())
		m0 := getMetrics(t, ts.URL)
		_, second := postJSON(t, ts.URL+"/v1/sta", invRequest())
		if !bytes.Equal(first, second) {
			t.Error("sequential identical requests returned different bytes")
		}
		m1 := getMetrics(t, ts.URL)
		if m1.GraphCache.Hits <= m0.GraphCache.Hits {
			t.Errorf("second request did not hit the warm-graph LRU: %+v -> %+v", m0.GraphCache, m1.GraphCache)
		}
		if m1.STACoalesced != m0.STACoalesced {
			t.Error("sequential requests must not count as coalesced")
		}
	})
	t.Run("graph cache disabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{GraphCap: -1})
		_, first := postJSON(t, ts.URL+"/v1/sta", invRequest())
		m0 := getMetrics(t, ts.URL)
		_, second := postJSON(t, ts.URL+"/v1/sta", invRequest())
		if !bytes.Equal(first, second) {
			t.Error("sequential identical requests returned different bytes")
		}
		m1 := getMetrics(t, ts.URL)
		if m1.NetlistCache.Hits <= m0.NetlistCache.Hits {
			t.Errorf("second request did not hit the netlist LRU: %+v -> %+v", m0.NetlistCache, m1.NetlistCache)
		}
		if m1.GraphCache.Hits != 0 || m1.GraphCache.Entries != 0 {
			t.Errorf("disabled graph cache has activity: %+v", m1.GraphCache)
		}
	})
}

// TestGenDeterministic: generated workloads resolve by spec and are
// reproducible across servers.
func TestGenDeterministic(t *testing.T) {
	req := STARequest{Gen: "40:6:3:7:12", Config: "coarse", Dt: "4p", Horizon: "3n"}
	_, ts1 := newTestServer(t, Config{})
	_, ts2 := newTestServer(t, Config{})
	resp, a := postJSON(t, ts1.URL+"/v1/sta", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, a)
	}
	_, b := postJSON(t, ts2.URL+"/v1/sta", req)
	if !bytes.Equal(a, b) {
		t.Error("same gen spec produced different reports on two servers")
	}
	var rep sta.GoldenReport
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Circuit == "" || len(rep.Nets) == 0 {
		t.Errorf("degenerate gen report: %+v", rep)
	}
}

// TestSTAErrors drives the 4xx surface.
func TestSTAErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"no workload", STARequest{}, 400},
		{"both workloads", STARequest{Netlist: invChain, Gen: "40"}, 400},
		{"bad format", STARequest{Netlist: invChain, Format: "verilog"}, 400},
		{"bad mode", STARequest{Netlist: invChain, Mode: "both"}, 400},
		{"bad config", STARequest{Netlist: invChain, Config: "turbo"}, 400},
		{"bad dt", STARequest{Netlist: invChain, Dt: "4q"}, 400},
		{"bad stimulus", STARequest{Netlist: invChain, Stimulus: "chaos"}, 400},
		{"bad gen", STARequest{Gen: "zero"}, 400},
		{"negative horizon", STARequest{Netlist: invChain, Horizon: "-1n"}, 400},
		{"unparsable netlist", STARequest{Netlist: "inst ???"}, 400},
		{"c17 stimulus elsewhere", STARequest{Netlist: invChain, Stimulus: "c17"}, 400},
		{"c17 stimulus on a subset", STARequest{Netlist: "input n1\noutput y\ninst U1 INV y n1\n", Stimulus: "c17"}, 400},
		{"unknown field", map[string]any{"netlist": invChain, "netlists": 3}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/sta", tc.req)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.want, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error envelope missing: %s", body)
			}
		})
	}

	if resp, err := http.Get(ts.URL + "/v1/sta"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sta = %d, want 405", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(ts.URL+"/healthz", "application/json", nil); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	if m := getMetrics(t, ts.URL); m.Errors < int64(len(cases)) {
		t.Errorf("errors counter = %d, want >= %d", m.Errors, len(cases))
	}
}

// TestArrivalsRejectNonPrimaryNets: an arrival override on a net that is
// not a primary input — unknown, or driven by an instance — is a 400
// naming the net on every endpoint that takes a workload, and a per-item
// 400 in a batch; no phantom net reaches a report.
func TestArrivalsRejectNonPrimaryNets(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, arrivals := range []string{"bogus:rise@1n", "n1:low"} {
		net, _, _ := strings.Cut(arrivals, ":")
		want := fmt.Sprintf("net %q is not a primary input", net)
		bad := invRequest()
		bad.Arrivals = arrivals
		mc := mcRequest()
		mc.STARequest = bad
		for path, req := range map[string]any{
			"/v1/sta":     bad,
			"/v1/session": SessionRequest{STARequest: bad},
			"/v1/mc":      mc,
		} {
			resp, body := postJSON(t, ts.URL+path, req)
			var eb errorBody
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &eb) != nil || !strings.Contains(eb.Error, want) {
				t.Errorf("%s with arrivals %q: status %d: %s", path, arrivals, resp.StatusCode, body)
			}
		}
		resp, body := postJSON(t, ts.URL+"/v1/sta:batch", BatchSTARequest{Items: []STARequest{bad, invRequest()}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, body)
		}
		reply := decodeBatchReply(t, body)
		if it := reply.Items[0]; it.Status != http.StatusBadRequest || !strings.Contains(it.Error, want) {
			t.Errorf("batch item with arrivals %q: status %d, error %q", arrivals, it.Status, it.Error)
		}
		if it := reply.Items[1]; it.Status != http.StatusOK {
			t.Errorf("good batch item: status %d, error %q", it.Status, it.Error)
		}
	}
}

// TestNetlistLRUEviction: a capacity-1 LRU holds only the latest
// workload. The warm-graph layer is disabled so the repeat request
// actually exercises the netlist LRU instead of short-circuiting above it.
func TestNetlistLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{NetlistCap: 1, GraphCap: -1})
	other := invRequest()
	other.Netlist = strings.Replace(invChain, "n1", "m1", 2)
	postJSON(t, ts.URL+"/v1/sta", invRequest())
	postJSON(t, ts.URL+"/v1/sta", other)
	postJSON(t, ts.URL+"/v1/sta", invRequest())
	m := getMetrics(t, ts.URL)
	if m.NetlistCache.Entries != 1 {
		t.Errorf("entries = %d, want 1", m.NetlistCache.Entries)
	}
	if m.NetlistCache.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", m.NetlistCache.Evictions)
	}
}

// TestSweepEndpoint compares the served CSV and JSON against the direct
// batch layer.
func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SweepRequest{
		Grid:   "skew=-60p:60p:60p;slew=80p;load=2f",
		Cells:  []string{"NAND2"},
		Config: "coarse",
		Dt:     "4p",
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("content type %q", ct)
	}

	grid, err := sweep.ParseGrid(req.Grid, sweep.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	runner := sweep.New(s.Engine(), sweep.Config{
		Tech:    testutil.Tech(),
		CharCfg: testutil.CoarseConfig(),
		Dt:      4e-12,
	})
	surf, err := runner.Sweep("NAND2", grid)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteCSV(&want, []*sweep.Surface{surf}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("served CSV differs from the direct sweep:\n%s\nvs\n%s", body, want.Bytes())
	}

	req.Format = "json"
	resp, jbody := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d: %s", resp.StatusCode, jbody)
	}
	if !json.Valid(jbody) {
		t.Error("sweep JSON response is not valid JSON")
	}

	for _, bad := range []SweepRequest{
		{Grid: "skew=?"},
		{Cells: []string{"INV"}}, // not a multi-input fully-modeled cell
		{Format: "xml"},
		{RefEvery: -1},
		{Config: "turbo"},
		{Dt: "1q"},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/sweep", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad sweep %+v = %d, want 400", bad, resp.StatusCode)
		}
	}
	if m := getMetrics(t, ts.URL); m.SweepPointEvals < int64(2*grid.Size()) {
		t.Errorf("sweep point evals = %d, want >= %d", m.SweepPointEvals, 2*grid.Size())
	}
}

// TestCharEndpoint warms a model and observes the cached flag flip.
func TestCharEndpoint(t *testing.T) {
	// A private engine: the shared one may already hold this model.
	s := NewWithEngine(Config{}, engine.New(0, nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, body := postJSON(t, ts.URL+"/v1/char", CharRequest{Cell: "INV", Config: "coarse"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr CharResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Cell != "INV" || cr.Cached || cr.Vdd <= 0 || len(cr.Inputs) != 1 {
		t.Errorf("first char response: %+v", cr)
	}
	_, body = postJSON(t, ts.URL+"/v1/char", CharRequest{Cell: "INV", Config: "coarse"})
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Cached {
		t.Errorf("second char response not cached: %+v", cr)
	}

	for _, bad := range []CharRequest{
		{Cell: "FLUXCAP"},
		{Cell: "INV", Kind: "quantum"},
		{Cell: "INV", Config: "turbo"},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/char", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad char %+v = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestCharacterizationLatencyMetric checks that /metrics times each
// characterization: a cold /v1/char ticks model_characterizations to 1
// and a repeat served from the model cache leaves it there.
func TestCharacterizationLatencyMetric(t *testing.T) {
	s := NewWithEngine(Config{}, engine.New(0, nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if n := getMetrics(t, ts.URL).Latency.ModelCharacterizations.Count; n != 0 {
		t.Fatalf("fresh server: model_characterizations count %d, want 0", n)
	}
	for i, want := range []int64{1, 1} {
		resp, body := postJSON(t, ts.URL+"/v1/char", CharRequest{Cell: "INV", Config: "coarse"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("char %d: status %d: %s", i, resp.StatusCode, body)
		}
		lat := getMetrics(t, ts.URL).Latency.ModelCharacterizations
		if lat.Count != want {
			t.Errorf("after char %d: model_characterizations count %d, want %d", i, lat.Count, want)
		}
		if lat.P50Ms <= 0 {
			t.Errorf("after char %d: model_characterizations p50 %v ms, want > 0", i, lat.P50Ms)
		}
	}
}

// TestHealthz and metrics shape.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Uptime < 0 {
		t.Errorf("healthz body: %+v", h)
	}
	m := getMetrics(t, ts.URL)
	if m.Workers < 1 || m.MaxInFlight < 1 {
		t.Errorf("metrics shape: %+v", m)
	}
}

// TestRequestTimeout: an already-expired deadline must surface as 504
// without computing.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	// Hold the only slots so acquire must wait (and hence time out).
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()
	resp, body := postJSON(t, ts.URL+"/v1/sta", invRequest())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestShutdown: Close cancels the base context; later computations
// refuse with 503.
func TestShutdown(t *testing.T) {
	s := NewWithEngine(Config{}, testEngine())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp, body := postJSON(t, ts.URL+"/v1/sta", invRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d (%s), want 503 after Close", resp.StatusCode, body)
	}
}

// TestStatusFor pins the error → status mapping.
func TestStatusFor(t *testing.T) {
	if got := statusFor(nil); got != 200 {
		t.Errorf("nil = %d", got)
	}
	if got := statusFor(fmt.Errorf("wrap: %w", context.DeadlineExceeded)); got != 504 {
		t.Errorf("deadline = %d", got)
	}
	if got := statusFor(fmt.Errorf("wrap: %w", context.Canceled)); got != 503 {
		t.Errorf("canceled = %d", got)
	}
	if got := statusFor(fmt.Errorf("plain")); got != 400 {
		t.Errorf("plain = %d", got)
	}
}
