package mcsm

// Golden regression fixtures: canonical STA reports for the c17 benchmark
// and the c432-class corpus circuit, plus one canonical sweep surface,
// committed under testdata/golden/. The tests fail on any bit-level drift
// of arrivals, slews, directions, waveform samples (via FNV fingerprints),
// MIS lists, or sweep measurements — the cross-PR complement of the
// in-process serial-vs-parallel equivalence tests: they catch uninten-
// tional numeric changes introduced by *code* changes, not just by
// scheduling. Regenerate intentionally with:
//
//	go test . -run Golden -update

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"

	"mcsm/internal/artifact"
	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/mc"
	"mcsm/internal/netlist"
	"mcsm/internal/nldm"
	"mcsm/internal/service"
	"mcsm/internal/spice"
	"mcsm/internal/sta"
	"mcsm/internal/sweep"
	"mcsm/internal/table"
	"mcsm/internal/testutil"
)

const goldenDir = "testdata/golden"

// goldenEngine is shared by all golden tests so each coarse model (INV,
// NAND2, NOR2) characterizes exactly once per test binary.
var (
	goldenEngOnce sync.Once
	goldenEng     *engine.Engine
)

func goldenEngine() *engine.Engine {
	goldenEngOnce.Do(func() { goldenEng = engine.New(0, nil) })
	return goldenEng
}

// TestGoldenC17Report pins the canonical c17 analysis (coarse NAND2 MCSM,
// canonical stimulus, 2 ps step, MIS mode) bit-for-bit.
func TestGoldenC17Report(t *testing.T) {
	eng := goldenEngine()
	nl, primary, opt := testutil.C17Fixture(t)
	models, err := eng.ModelsFor(testutil.Tech(), nl, testutil.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Analyze(nl, models, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join(goldenDir, "c17_sta.json"),
		testutil.MarshalReport(t, "c17", rep))
}

// TestGoldenC432Report pins the mid-size corpus analysis: the technology-
// mapped c432-class circuit (552 cells) under the staggered corpus
// stimulus, over the same window/step as the engine's mid-size
// equivalence test.
func TestGoldenC432Report(t *testing.T) {
	f, err := os.Open("internal/netlist/testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := netlist.ParseBench(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.Map(circ)
	if err != nil {
		t.Fatal(err)
	}
	eng := goldenEngine()
	models, err := eng.ModelsFor(testutil.Tech(), nl, testutil.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2.6e-9
	primary := netlist.Stimulus(nl.PrimaryIn, testutil.Tech().Vdd, 80e-12, horizon)
	rep, err := eng.Analyze(nl, models, primary, sta.Options{Horizon: horizon, Dt: 4e-12})
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join(goldenDir, "c432_sta.json"),
		testutil.MarshalReport(t, "c432", rep))

	// Every stage output shares the analysis's one time grid, read-only:
	// appends to the outputs copy, and after 552 solves the grid still
	// holds what NewGrid computes for the window.
	grid, err := spice.NewGrid(0, horizon, 4e-12)
	if err != nil {
		t.Fatal(err)
	}
	shared := rep.Nets[nl.Instances[0].Output].Wave.T
	for _, inst := range nl.Instances {
		w := rep.Nets[inst.Output].Wave
		if &w.T[0] != &shared[0] {
			t.Fatalf("stage %s records its own times", inst.Name)
		}
		_ = append(w.T, -1)
	}
	if !slices.EqualFunc(shared, grid.Times(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatal("the analysis's grid no longer holds the window's times")
	}
}

// loadC432 parses and technology-maps the c432-class corpus circuit.
func loadC432(t *testing.T) *sta.Netlist {
	t.Helper()
	f, err := os.Open("internal/netlist/testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := netlist.ParseBench(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.Map(circ)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// goldenWorstArrival decodes a committed golden report and returns its
// worst primary-output arrival — the full-CSM truth the hybrid fixtures
// are judged against, without re-running the full analysis.
func goldenWorstArrival(t *testing.T, path string, outputs []string) float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g sta.GoldenReport
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	worst := math.Inf(-1)
	for _, po := range outputs {
		nr, ok := g.Nets[po]
		if !ok || nr.Arrival == "NaN" {
			continue
		}
		arr, err := strconv.ParseFloat(nr.Arrival, 64)
		if err != nil {
			t.Fatalf("%s: net %s arrival %q: %v", path, po, nr.Arrival, err)
		}
		if arr > worst {
			worst = arr
		}
	}
	if math.IsInf(worst, -1) {
		t.Fatalf("%s: no finite primary-output arrival", path)
	}
	return worst
}

// c432HybridMargin is the pinned criticality margin of the hybrid golden
// fixtures: explicit rather than the 10%-of-worst default, so the fixture
// does not move when the NLDM pass drifts.
const c432HybridMargin = 150e-12

// TestGoldenC432Hybrid pins the hybrid backend on the mid-size corpus
// circuit: the NLDM pre-pass classifies stages at a fixed 150 ps margin,
// near-critical stages re-evaluate through CSM, and the attributed report
// (c432_hybrid_sta.json) is committed bit-for-bit. Two acceptance
// properties ride along: the CSM re-evaluation set stays small (≤ 40% of
// stages), and the worst primary-output arrival lands within the margin
// of the committed full-CSM report.
func TestGoldenC432Hybrid(t *testing.T) {
	nl := loadC432(t)
	const horizon = 2.6e-9
	primary := netlist.Stimulus(nl.PrimaryIn, testutil.Tech().Vdd, 80e-12, horizon)
	res, err := goldenEngine().AnalyzeBackend(context.Background(), engine.BackendSpec{
		Kind:   engine.BackendHybrid,
		Tech:   testutil.Tech(),
		CSM:    testutil.CoarseConfig(),
		Margin: c432HybridMargin,
	}, nl, primary, sta.Options{Horizon: horizon, Dt: 4e-12})
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(res.Plan.CSMStages) / float64(len(nl.Instances)); frac > 0.40 {
		t.Errorf("hybrid re-evaluated %d/%d stages (%.1f%%) through CSM, want ≤ 40%%",
			res.Plan.CSMStages, len(nl.Instances), 100*frac)
	}
	csmWorst := goldenWorstArrival(t, filepath.Join(goldenDir, "c432_sta.json"), nl.PrimaryOut)
	_, hybWorst, ok := res.Report.WorstOutput(nl)
	if !ok {
		t.Fatal("hybrid report has no worst output")
	}
	if d := math.Abs(hybWorst - csmWorst); d > c432HybridMargin {
		t.Errorf("hybrid worst arrival off the full-CSM fixture by %.1f ps (margin %.1f ps)",
			d*1e12, c432HybridMargin*1e12)
	}
	body, err := engine.MarshalBackendReport("c432", nl, res)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join(goldenDir, "c432_hybrid_sta.json"), body)
}

// goldenPost fires one POST at an in-process service and returns status
// and body.
func goldenPost(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// marshalRequest renders a service request in the fixture encoding.
func marshalRequest(t *testing.T, req any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestGoldenServeC17 is the service determinism contract on the c17
// fixture: the /v1/sta response for the canonical request must be
// byte-identical to the committed golden report, at any worker-pool
// width. The request itself is also pinned as a fixture
// (c17_sta_request.json) — CI's smoke job POSTs that exact file at a
// real mcsm-serve process and diffs against the same report.
func TestGoldenServeC17(t *testing.T) {
	req := service.STARequest{
		Name:     "c17",
		Netlist:  sta.C17Netlist,
		Format:   "net",
		Config:   "coarse",
		Stimulus: "c17",
		Dt:       "2p",
		Horizon:  "4n",
	}
	reqBody := marshalRequest(t, req)
	testutil.Golden(t, filepath.Join(goldenDir, "c17_sta_request.json"), reqBody)

	for _, workers := range []int{1, 4} {
		srv := service.NewWithEngine(service.Config{}, engine.New(workers, goldenEngine().Cache()))
		ts := httptest.NewServer(srv.Handler())
		status, body := goldenPost(t, ts.URL+"/v1/sta", reqBody)
		ts.Close()
		srv.Close()
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, status, body)
		}
		if workers == 1 {
			// One comparison against the committed fixture (with -update
			// support)...
			testutil.Golden(t, filepath.Join(goldenDir, "c17_sta.json"), body)
			continue
		}
		// ...and every other width must agree with the fixture exactly.
		want, err := os.ReadFile(filepath.Join(goldenDir, "c17_sta.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("workers=%d: served report drifted from the fixture", workers)
		}
	}
}

// TestGoldenServeC432 extends the service contract to the mid-size
// corpus circuit: a bench-format request through parsing, technology
// mapping, and the level-parallel engine reproduces the committed c432
// report byte-for-byte.
func TestGoldenServeC432(t *testing.T) {
	bench, err := os.ReadFile("internal/netlist/testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	req := service.STARequest{
		Name:    "c432",
		Netlist: string(bench),
		Format:  "bench",
		Config:  "coarse",
		Dt:      "4p",
		Horizon: "2.6n",
		// Stimulus defaults to "staggered" for bench workloads — the
		// corpus drive the fixture was generated under.
	}
	srv := service.NewWithEngine(service.Config{}, goldenEngine())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	status, body := goldenPost(t, ts.URL+"/v1/sta", marshalRequest(t, req))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	testutil.Golden(t, filepath.Join(goldenDir, "c432_sta.json"), body)
}

// TestGoldenServeHybrid extends the service determinism contract to the
// hybrid backend: the pinned request (c432_hybrid_request.json) must
// reproduce the committed attributed report byte-for-byte at every
// worker-pool width — the same fixture the engine-level test pins, so
// "the service answers exactly what the engine computes" stays a
// byte-level statement for the new backend too.
func TestGoldenServeHybrid(t *testing.T) {
	bench, err := os.ReadFile("internal/netlist/testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	req := service.STARequest{
		Name:    "c432",
		Netlist: string(bench),
		Format:  "bench",
		Config:  "coarse",
		Dt:      "4p",
		Horizon: "2.6n",
		Backend: "hybrid",
		Margin:  "150p",
	}
	reqBody := marshalRequest(t, req)
	testutil.Golden(t, filepath.Join(goldenDir, "c432_hybrid_request.json"), reqBody)

	for _, workers := range []int{1, 4} {
		srv := service.NewWithEngine(service.Config{}, engine.New(workers, goldenEngine().Cache()))
		ts := httptest.NewServer(srv.Handler())
		status, body := goldenPost(t, ts.URL+"/v1/sta", reqBody)
		ts.Close()
		srv.Close()
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, status, body)
		}
		if workers == 1 {
			testutil.Golden(t, filepath.Join(goldenDir, "c432_hybrid_sta.json"), body)
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, "c432_hybrid_sta.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("workers=%d: served hybrid report drifted from the fixture", workers)
		}
	}
}

// TestGoldenBackendCSMBitIdentity is the no-regression guarantee of the
// backend layer: a request that *explicitly* selects the csm backend must
// produce today's committed reports byte-for-byte — the backend plumbing
// may not perturb the historical path by even one bit, at any worker
// count.
func TestGoldenBackendCSMBitIdentity(t *testing.T) {
	bench, err := os.ReadFile("internal/netlist/testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fixture string
		req     service.STARequest
	}{
		{"c17_sta.json", service.STARequest{
			Name: "c17", Netlist: sta.C17Netlist, Format: "net",
			Config: "coarse", Stimulus: "c17", Dt: "2p", Horizon: "4n",
			Backend: "csm",
		}},
		{"c432_sta.json", service.STARequest{
			Name: "c432", Netlist: string(bench), Format: "bench",
			Config: "coarse", Dt: "4p", Horizon: "2.6n",
			Backend: "csm",
		}},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join(goldenDir, tc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			srv := service.NewWithEngine(service.Config{}, engine.New(workers, goldenEngine().Cache()))
			ts := httptest.NewServer(srv.Handler())
			status, body := goldenPost(t, ts.URL+"/v1/sta", marshalRequest(t, tc.req))
			ts.Close()
			srv.Close()
			if status != http.StatusOK {
				t.Fatalf("%s workers=%d: status %d: %s", tc.fixture, workers, status, body)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s workers=%d: explicit -backend csm drifted from the committed fixture",
					tc.fixture, workers)
			}
		}
	}
}

// TestGoldenServeBatch pins the batch endpoint's framing and its central
// contract in one fixture pair: the committed /v1/sta:batch request
// (c17_batch_request.json — the canonical c17 item twice, so the reply
// also witnesses in-batch dedup) must reproduce the committed reply
// byte-for-byte at every worker-pool width, and every embedded report,
// extracted back out of the reply, must equal the single-request golden
// (c17_sta.json) exactly. CI's smoke job POSTs the same request file at
// a real mcsm-serve process and cmps the same reply.
func TestGoldenServeBatch(t *testing.T) {
	item := service.STARequest{
		Name:     "c17",
		Netlist:  sta.C17Netlist,
		Format:   "net",
		Config:   "coarse",
		Stimulus: "c17",
		Dt:       "2p",
		Horizon:  "4n",
	}
	reqBody := marshalRequest(t, service.BatchSTARequest{
		Items: []service.STARequest{item, item},
	})
	testutil.Golden(t, filepath.Join(goldenDir, "c17_batch_request.json"), reqBody)

	single, err := os.ReadFile(filepath.Join(goldenDir, "c17_sta.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		srv := service.NewWithEngine(service.Config{}, engine.New(workers, goldenEngine().Cache()))
		ts := httptest.NewServer(srv.Handler())
		status, body := goldenPost(t, ts.URL+"/v1/sta:batch", reqBody)
		ts.Close()
		srv.Close()
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, status, body)
		}
		if workers == 1 {
			testutil.Golden(t, filepath.Join(goldenDir, "c17_batch_reply.json"), body)
		} else {
			want, err := os.ReadFile(filepath.Join(goldenDir, "c17_batch_reply.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("workers=%d: batch reply drifted from the fixture", workers)
			}
		}
		var reply service.BatchSTAReply
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("workers=%d: batch reply: %v", workers, err)
		}
		if len(reply.Items) != 2 {
			t.Fatalf("workers=%d: %d items", workers, len(reply.Items))
		}
		for i, it := range reply.Items {
			if it.Status != http.StatusOK {
				t.Fatalf("workers=%d item %d: status %d: %s", workers, i, it.Status, it.Error)
			}
			got := append(append([]byte(nil), it.Report...), '\n')
			if !bytes.Equal(got, single) {
				t.Errorf("workers=%d item %d: embedded report differs from the single-request golden", workers, i)
			}
		}
	}
}

// TestGoldenServeEco pins the stateful ECO flow end to end: the committed
// session request builds a retained c17 timing graph server-side, the
// committed eco request applies a three-op edit batch, and the delta
// reply must match testdata/golden/c17_eco_reply.json byte-for-byte — at
// every worker-pool width. CI's smoke job replays the same two fixtures
// against a real mcsm-serve process and cmps the same reply.
func TestGoldenServeEco(t *testing.T) {
	sessReq := service.SessionRequest{
		Session: "golden-c17",
		STARequest: service.STARequest{
			Name:     "c17",
			Netlist:  sta.C17Netlist,
			Format:   "net",
			Config:   "coarse",
			Stimulus: "c17",
			Dt:       "2p",
			Horizon:  "4n",
		},
	}
	sessBody := marshalRequest(t, sessReq)
	testutil.Golden(t, filepath.Join(goldenDir, "c17_eco_session.json"), sessBody)

	ecoReq := service.EcoRequest{
		Session: "golden-c17",
		Edits: []graph.Edit{
			{Op: "swap_cell", Inst: "G22", Type: "NOR2"},
			{Op: "set_arrival", Net: "n1", Wave: "rise@1.1n"},
			{Op: "set_load", Net: "n23", Cap: "4f"},
		},
	}
	ecoBody := marshalRequest(t, ecoReq)
	testutil.Golden(t, filepath.Join(goldenDir, "c17_eco_request.json"), ecoBody)

	for _, workers := range []int{1, 4} {
		srv := service.NewWithEngine(service.Config{}, engine.New(workers, goldenEngine().Cache()))
		ts := httptest.NewServer(srv.Handler())
		status, body := goldenPost(t, ts.URL+"/v1/session", sessBody)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: session status %d: %s", workers, status, body)
		}
		status, reply := goldenPost(t, ts.URL+"/v1/eco", ecoBody)
		streamed := srv.Snapshot().Sessions.StagesStreamed
		ts.Close()
		srv.Close()
		if status != http.StatusOK {
			t.Fatalf("workers=%d: eco status %d: %s", workers, status, reply)
		}
		// Stages start on live inputs only on more than one worker; the
		// count is the schedule's and stays out of the reply bytes.
		t.Logf("workers=%d: %d stages started on a live input", workers, streamed)
		if workers == 1 && streamed != 0 {
			t.Errorf("workers=1: %d stages streamed", streamed)
		}
		if workers == 1 {
			testutil.Golden(t, filepath.Join(goldenDir, "c17_eco_reply.json"), reply)
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, "c17_eco_reply.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, want) {
			t.Errorf("workers=%d: eco delta drifted from the fixture", workers)
		}
	}
}

// TestGoldenServeEcoHybrid pins the ECO flow on a hybrid session: the
// committed session request builds the c432 150 ps hybrid graph, and the
// committed batch swaps a CSM-refined stage (gn21) to its X2 variant,
// loads its output, and swaps an NLDM-routed fan-in driver (gn11) to X2.
// The delta reply (c432_hybrid_eco_reply.json) must match byte-for-byte at
// every worker-pool width. CI's smoke job replays the same fixtures
// against a real mcsm-serve process.
func TestGoldenServeEcoHybrid(t *testing.T) {
	bench, err := os.ReadFile("internal/netlist/testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	sessBody := marshalRequest(t, service.SessionRequest{
		Session: "golden-c432-hybrid",
		STARequest: service.STARequest{
			Name:    "c432",
			Netlist: string(bench),
			Format:  "bench",
			Config:  "coarse",
			Dt:      "4p",
			Horizon: "2.6n",
			Backend: "hybrid",
			Margin:  "150p",
		},
	})
	testutil.Golden(t, filepath.Join(goldenDir, "c432_hybrid_eco_session.json"), sessBody)

	ecoBody := marshalRequest(t, service.EcoRequest{
		Session: "golden-c432-hybrid",
		Edits: []graph.Edit{
			{Op: "swap_cell", Inst: "gn21", Type: "NOR2_X2"},
			{Op: "set_load", Net: "n21", Cap: "3f"},
			{Op: "swap_cell", Inst: "gn11", Type: "INV_X2"},
		},
	})
	testutil.Golden(t, filepath.Join(goldenDir, "c432_hybrid_eco_request.json"), ecoBody)

	for _, workers := range []int{1, 4} {
		srv := service.NewWithEngine(service.Config{}, engine.New(workers, goldenEngine().Cache()))
		ts := httptest.NewServer(srv.Handler())
		status, body := goldenPost(t, ts.URL+"/v1/session", sessBody)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: session status %d: %s", workers, status, body)
		}
		status, reply := goldenPost(t, ts.URL+"/v1/eco", ecoBody)
		streamed := srv.Snapshot().Sessions.StagesStreamed
		ts.Close()
		srv.Close()
		if status != http.StatusOK {
			t.Fatalf("workers=%d: eco status %d: %s", workers, status, reply)
		}
		// Stages start on live inputs only on more than one worker; the
		// count is the schedule's and stays out of the reply bytes.
		t.Logf("workers=%d: %d stages started on a live input", workers, streamed)
		if workers == 1 && streamed != 0 {
			t.Errorf("workers=1: %d stages streamed", streamed)
		}
		if workers == 1 {
			testutil.Golden(t, filepath.Join(goldenDir, "c432_hybrid_eco_reply.json"), reply)
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, "c432_hybrid_eco_reply.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, want) {
			t.Errorf("workers=%d: hybrid eco delta drifted from the fixture", workers)
		}
	}
}

// goldenMCTrials is the pinned Monte-Carlo trial budget of the MC
// fixtures: enough draws for a non-degenerate distribution (spread,
// distinct percentiles, a populated histogram), small enough that the
// coarse c17 workload runs the budget in seconds.
const goldenMCTrials = 24

// TestGoldenC17MC pins the Monte-Carlo variation report on the c17
// fixture bit-for-bit: 24 trials at the default sigmas (σVt 15 mV,
// σstrength 5%), seed 7, coarse models — every percentile string, the
// worst-path tally, and the histogram are exact-float encoded, so any
// drift in sampling, trial evaluation, or the streaming reducer shows
// as a byte diff.
func TestGoldenC17MC(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	res, err := mc.New(goldenEngine()).Run(context.Background(), mc.Config{
		Backend: engine.BackendSpec{
			Kind: engine.BackendCSM, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(),
		},
		Trials:        goldenMCTrials,
		Seed:          7,
		SigmaVt:       mc.DefaultSigmaVt,
		SigmaStrength: mc.DefaultSigmaStrength,
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	body, err := mc.MarshalReport("c17", res)
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join(goldenDir, "c17_mc.json"), body)
}

// TestGoldenServeMC extends the service determinism contract to the
// statistical layer: the pinned /v1/mc request (c17_mc_request.json)
// must reproduce the committed reply byte-for-byte at every worker-pool
// width, and — because the request names the exact engine-fixture
// configuration — the served reply must equal the engine-level
// c17_mc.json fixture too. CI's smoke job POSTs the same request file
// at a real mcsm-serve process and cmps the same reply.
func TestGoldenServeMC(t *testing.T) {
	req := service.MCRequest{
		STARequest: service.STARequest{
			Name:     "c17",
			Netlist:  sta.C17Netlist,
			Format:   "net",
			Config:   "coarse",
			Stimulus: "c17",
			Dt:       "2p",
			Horizon:  "4n",
		},
		Trials:        goldenMCTrials,
		Seed:          7,
		SigmaVt:       "15m",
		SigmaStrength: "0.05",
	}
	reqBody := marshalRequest(t, req)
	testutil.Golden(t, filepath.Join(goldenDir, "c17_mc_request.json"), reqBody)

	for _, workers := range []int{1, 4} {
		srv := service.NewWithEngine(service.Config{}, engine.New(workers, goldenEngine().Cache()))
		ts := httptest.NewServer(srv.Handler())
		status, body := goldenPost(t, ts.URL+"/v1/mc", reqBody)
		ts.Close()
		srv.Close()
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, status, body)
		}
		if workers == 1 {
			testutil.Golden(t, filepath.Join(goldenDir, "c17_mc_reply.json"), body)
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, "c17_mc_reply.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("workers=%d: served MC report drifted from the fixture", workers)
		}
	}

	// The request pins the engine fixture's exact configuration, so the
	// served bytes and the engine-level bytes are one fixture, not two.
	engineFix, err := os.ReadFile(filepath.Join(goldenDir, "c17_mc.json"))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := os.ReadFile(filepath.Join(goldenDir, "c17_mc_reply.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engineFix, reply) {
		t.Error("served MC reply and engine-level MC fixture disagree")
	}
}

// TestGoldenTracedSTA pins the traced-reply contract of the
// observability layer: a /v1/sta request with "trace": true answers a
// wrapper object whose embedded report is byte-identical to the
// committed golden fixture — tracing may observe a computation, never
// perturb its bytes — with a non-empty span tree riding alongside.
func TestGoldenTracedSTA(t *testing.T) {
	req := service.STARequest{
		Name:     "c17",
		Netlist:  sta.C17Netlist,
		Format:   "net",
		Config:   "coarse",
		Stimulus: "c17",
		Dt:       "2p",
		Horizon:  "4n",
		Trace:    true,
	}
	srv := service.NewWithEngine(service.Config{}, engine.New(0, goldenEngine().Cache()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	status, body := goldenPost(t, ts.URL+"/v1/sta", marshalRequest(t, req))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var reply service.TracedReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("traced reply: %v", err)
	}
	if reply.Trace == nil || reply.Trace.Name != "sta" {
		t.Fatalf("traced reply carries no sta span tree: %+v", reply.Trace)
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "c17_sta.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte(nil), reply.Report...), '\n')
	if !bytes.Equal(got, want) {
		t.Error("traced reply's embedded report drifted from the committed fixture")
	}
}

// TestGoldenNAND2Sweep pins one canonical sweep surface: the NAND2 MIS
// skew sweep on the standard test grid with flat-SPICE references every
// fifth point, in the exact-float CSV encoding.
func TestGoldenNAND2Sweep(t *testing.T) {
	runner := sweep.New(goldenEngine(), sweep.Config{
		Tech:     testutil.Tech(),
		CharCfg:  testutil.CoarseConfig(),
		Dt:       4e-12,
		RefEvery: 5,
	})
	grid := sweep.Grid{
		Skews: sweep.Span(-120e-12, 120e-12, 60e-12),
		Slews: []float64{80e-12},
		Loads: []float64{2e-15, 8e-15},
	}
	surf, err := runner.Sweep("NAND2", grid)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, []*sweep.Surface{surf}); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join(goldenDir, "nand2_sweep.csv"), buf.Bytes())
}

// goldenModels are the characterizations whose bytes model_digests.json
// pins: the report fixtures only visit the table cells their stages
// reach, so a drift elsewhere in a model would pass them unseen. The set
// covers every extraction branch of the exact path — SIS, MCSM with and
// without the internal Miller tables, direct operating-point caps, the
// MIS baseline — plus the FastConfig NAND2 MCSM the service's default
// "fast" profile characterizes, and the same model on the approximate
// Config.Fast solver path (warm DC starts, chord Newton, ΔV-adaptive
// ramps), which no report fixture reaches.
var goldenModels = []struct {
	name string
	cell string
	kind csm.Kind
	cfg  csm.Config
}{
	{"coarse/INV/SIS-CSM", "INV", csm.KindSIS, csm.CoarseConfig()},
	{"coarse/NAND2/MCSM", "NAND2", csm.KindMCSM, csm.CoarseConfig()},
	{"coarse/NOR2/MCSM", "NOR2", csm.KindMCSM, csm.CoarseConfig()},
	{"coarse-no-internal-miller/NAND2/MCSM", "NAND2", csm.KindMCSM, coarseWith(func(c *csm.Config) { c.NoInternalMiller = true })},
	{"coarse-direct-caps/NAND2/MCSM", "NAND2", csm.KindMCSM, coarseWith(func(c *csm.Config) { c.DirectCaps = true })},
	{"coarse/NOR2/MIS-baseline", "NOR2", csm.KindMISBaseline, csm.CoarseConfig()},
	{"fast/NAND2/MCSM", "NAND2", csm.KindMCSM, csm.FastConfig()},
	{"fast-solver/NAND2/MCSM", "NAND2", csm.KindMCSM, fastWith(func(c *csm.Config) { c.Fast = true })},
}

func coarseWith(edit func(*csm.Config)) csm.Config {
	cfg := csm.CoarseConfig()
	edit(&cfg)
	return cfg
}

func fastWith(edit func(*csm.Config)) csm.Config {
	cfg := csm.FastConfig()
	edit(&cfg)
	return cfg
}

// TestGoldenModelDigests pins every table of the goldenModels
// characterizations bit-for-bit: the SHA-256 of each model's binary
// artifact (key hash 0), which frames every float64 of every table
// exactly.
func TestGoldenModelDigests(t *testing.T) {
	digests := map[string]string{}
	for _, gm := range goldenModels {
		spec, err := cells.Get(gm.cell)
		if err != nil {
			t.Fatal(err)
		}
		m, err := goldenEngine().Cache().Get(testutil.Tech(), spec, gm.kind, gm.cfg)
		if err != nil {
			t.Fatalf("%s: %v", gm.name, err)
		}
		b, err := artifact.Encode(m, 0)
		if err != nil {
			t.Fatalf("%s: %v", gm.name, err)
		}
		sum := sha256.Sum256(b)
		digests[gm.name] = hex.EncodeToString(sum[:])
	}
	goldenDigests(t, filepath.Join(goldenDir, "model_digests.json"), digests)
}

// goldenDigests pins a name → digest map as the JSON fixture at path,
// first naming each entry that drifted from the fixture.
func goldenDigests(t *testing.T, path string, digests map[string]string) {
	t.Helper()
	if !*testutil.UpdateGolden {
		var want map[string]string
		if raw, err := os.ReadFile(path); err == nil && json.Unmarshal(raw, &want) == nil {
			for _, name := range slices.Sorted(maps.Keys(digests)) {
				if digests[name] != want[name] {
					t.Errorf("%s: bytes drifted (sha256 %s, fixture %s)", name, digests[name], want[name])
				}
			}
		}
	}
	body, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, path, append(body, '\n'))
}

// goldenNLDMCells are the cells whose nldm.DefaultConfig libraries
// nldm_digests.json pins: the catalogue the hybrid and nldm backends
// characterize. The report fixtures read only the table cells their
// stages reach.
var goldenNLDMCells = []string{"INV", "NAND2", "NOR2", "INV_X2", "NAND2_X2", "NOR2_X2"}

// nldmDigest hashes a canonical encoding of lib: its supply, every pin's
// input capacitance in pin order, and per arc its identity, table axes and
// the Float64bits of every Delay and Slew cell.
func nldmDigest(lib *nldm.Library) string {
	h := sha256.New()
	f64 := func(v float64) { _ = binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	f64(lib.Vdd)
	for _, pin := range slices.Sorted(maps.Keys(lib.InputCap)) {
		fmt.Fprintf(h, "cap %s\n", pin)
		f64(lib.InputCap[pin])
	}
	for _, a := range lib.Arcs {
		fmt.Fprintf(h, "arc %s %s in_rise=%t out_rise=%t\n", a.Cell, a.Input, a.InputRise, a.OutRise)
		for _, tb := range []*table.Table{a.Delay, a.Slew} {
			for _, ax := range tb.Axes {
				fmt.Fprintf(h, "axis %s %d\n", ax.Name, len(ax.Points))
				for _, p := range ax.Points {
					f64(p)
				}
			}
			for _, v := range tb.Data {
				f64(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenNLDMDigests pins every cell of the goldenNLDMCells libraries
// at nldm.DefaultConfig bit-for-bit, as TestGoldenModelDigests pins the
// CSM models.
func TestGoldenNLDMDigests(t *testing.T) {
	tech := testutil.Tech()
	nl := &sta.Netlist{}
	for _, cell := range goldenNLDMCells {
		nl.Instances = append(nl.Instances, sta.Instance{Type: cell})
	}
	libs, err := goldenEngine().NLDMFor(tech, nl, nldm.DefaultConfig(tech), nil)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, cell := range goldenNLDMCells {
		digests[cell] = nldmDigest(libs[cell])
	}
	goldenDigests(t, filepath.Join(goldenDir, "nldm_digests.json"), digests)
}
