package mc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/engine"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

// sharedCache keeps characterization warm across every engine width the
// determinism tests spin up — the trials themselves must not depend on
// cache temperature, and sharing makes the suite affordable.
var sharedCache = engine.NewModelCache()

func c17Config(trials int) Config {
	return Config{
		Backend: engine.BackendSpec{
			Tech: testutil.Tech(),
			CSM:  testutil.CoarseConfig(),
		},
		Trials:        trials,
		Seed:          7,
		SigmaVt:       0.015,
		SigmaStrength: 0.05,
	}
}

func runC17(t *testing.T, workers int, cfg Config) (*Result, []byte) {
	t.Helper()
	nl, primary, opt := testutil.C17Fixture(t)
	res, err := New(engine.New(workers, sharedCache)).Run(context.Background(), cfg, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	body, err := MarshalReport("c17", res)
	if err != nil {
		t.Fatal(err)
	}
	return res, body
}

// TestRunDeterministicAcrossWorkers is the package's headline contract:
// the full canonical report — and every streaming snapshot — is
// byte-identical at workers 1, 4, and NumCPU. Run under -race in CI.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("MC trials in short mode")
	}
	type capture struct {
		body    []byte
		updates []Update
	}
	widths := []int{1, 4, runtime.NumCPU()}
	runs := make([]capture, len(widths))
	for i, w := range widths {
		cfg := c17Config(10)
		cfg.Batch = 3
		var ups []Update
		var mu sync.Mutex
		cfg.OnUpdate = func(u Update) {
			mu.Lock()
			ups = append(ups, u)
			mu.Unlock()
		}
		_, body := runC17(t, w, cfg)
		runs[i] = capture{body, ups}
	}
	for i := 1; i < len(runs); i++ {
		if !bytes.Equal(runs[0].body, runs[i].body) {
			t.Errorf("report at workers=%d differs from workers=1:\n%s\nvs\n%s",
				widths[i], runs[i].body, runs[0].body)
		}
		if len(runs[0].updates) != len(runs[i].updates) {
			t.Fatalf("update count %d vs %d at workers=%d",
				len(runs[0].updates), len(runs[i].updates), widths[i])
		}
		for j := range runs[0].updates {
			a, b := runs[0].updates[j], runs[i].updates[j]
			if a.TrialsDone != b.TrialsDone || a.Switched != b.Switched ||
				!sameBits(a.Mean, b.Mean) || !sameBits(a.Sigma, b.Sigma) ||
				!sameBits(a.P50, b.P50) || !sameBits(a.P95, b.P95) || !sameBits(a.P99, b.P99) {
				t.Errorf("streaming update %d differs at workers=%d: %+v vs %+v", j, widths[i], a, b)
			}
		}
	}
	// The updates advance in strictly increasing order and end at the
	// full budget.
	ups := runs[0].updates
	if len(ups) == 0 || ups[len(ups)-1].TrialsDone != 10 {
		t.Fatalf("updates did not reach the budget: %+v", ups)
	}
	for j := 1; j < len(ups); j++ {
		if ups[j].TrialsDone <= ups[j-1].TrialsDone {
			t.Errorf("updates out of order: %+v", ups)
		}
	}
}

// TestRunBatchInvariance: the batch knob changes only how often the
// watermark reports, never the result.
func TestRunBatchInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("MC trials in short mode")
	}
	var ref []byte
	for _, batch := range []int{1, 3, 100} {
		cfg := c17Config(8)
		cfg.Batch = batch
		_, body := runC17(t, 4, cfg)
		if ref == nil {
			ref = body
		} else if !bytes.Equal(ref, body) {
			t.Errorf("batch=%d changed the report", batch)
		}
	}
}

// TestRunZeroSigmaMatchesBase: with both sigmas zero every scale is
// exactly 1, so all trials collapse onto the deterministic analysis —
// the worst-arrival distribution must be a point mass at the engine's
// own worst output arrival, bit for bit.
func TestRunZeroSigmaMatchesBase(t *testing.T) {
	if testing.Short() {
		t.Skip("MC trials in short mode")
	}
	nl, primary, opt := testutil.C17Fixture(t)
	eng := engine.New(4, sharedCache)

	cfg := c17Config(4)
	cfg.SigmaVt, cfg.SigmaStrength = 0, 0
	res, err := New(eng).Run(context.Background(), cfg, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}

	models, err := eng.ModelsFor(cfg.Backend.Tech, nl, cfg.Backend.CSM)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Analyze(nl, models, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	worstNet, worstArr, ok := rep.WorstOutput(nl)
	if !ok {
		t.Fatal("base analysis has no switching output")
	}
	w := res.Worst
	if w.Switched != 4 || !sameBits(w.Mean, worstArr) || !sameBits(w.Min, worstArr) ||
		!sameBits(w.Max, worstArr) || !sameBits(w.P50, worstArr) || !sameBits(w.P99, worstArr) {
		t.Errorf("zero-sigma worst %+v, want point mass at %v", w, worstArr)
	}
	if w.Sigma != 0 {
		t.Errorf("zero-sigma σ = %v", w.Sigma)
	}
	if res.WorstNets[worstNet] != 4 {
		t.Errorf("worst nets %v, want %s×4", res.WorstNets, worstNet)
	}
	// Per-output distributions collapse onto the base arrivals too.
	for _, d := range res.Outputs {
		base := rep.Nets[d.Net].Arrival
		if math.IsNaN(base) {
			if d.Switched != 0 {
				t.Errorf("output %s: switched=%d for a non-switching net", d.Net, d.Switched)
			}
			continue
		}
		if d.Switched != 4 || !sameBits(d.Mean, base) || !sameBits(d.P95, base) {
			t.Errorf("output %s: %+v, want point mass at %v", d.Net, d, base)
		}
	}
}

// TestRunVariationSpreads: with realistic sigmas the worst-arrival
// distribution actually spreads, stays near the nominal delay, and the
// report encodes it canonically.
func TestRunVariationSpreads(t *testing.T) {
	if testing.Short() {
		t.Skip("MC trials in short mode")
	}
	res, body := runC17(t, runtime.NumCPU(), c17Config(12))
	w := res.Worst
	if w.Switched != 12 {
		t.Fatalf("switched %d/12", w.Switched)
	}
	if !(w.Sigma > 0) || !(w.Max > w.Min) {
		t.Errorf("no spread: %+v", w)
	}
	if !(w.P50 <= w.P95 && w.P95 <= w.P99) {
		t.Errorf("quantiles out of order: %+v", w)
	}
	// Spread should be small relative to the ~1.2ns arrival (sigmas are
	// a few percent of one stage delay).
	if rel := (w.Max - w.Min) / w.Mean; rel <= 0 || rel > 0.5 {
		t.Errorf("implausible spread %v", rel)
	}
	total := 0
	for _, c := range res.Hist.Counts {
		total += c
	}
	if total != 12 {
		t.Errorf("histogram holds %d trials", total)
	}
	for _, want := range []string{`"circuit": "c17"`, `"backend": "csm"`, `"p99"`, `"worst_nets"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("report lacks %s:\n%s", want, body)
		}
	}
}

// TestRunUnswitchedOutputs: constant inputs drive nothing; the report
// must classify every trial as unswitched (NaN statistics, empty
// criticality map) instead of polluting the streams.
func TestRunUnswitchedOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("MC trials in short mode")
	}
	nl, _, opt := testutil.C17Fixture(t)
	vdd := testutil.Tech().Vdd
	primary := map[string]wave.Waveform{}
	for _, in := range nl.PrimaryIn {
		primary[in] = wave.Constant(vdd, 0, 4e-9)
	}
	res, err := New(engine.New(2, sharedCache)).Run(context.Background(), c17Config(3), nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worst.Switched != 0 || len(res.WorstNets) != 0 {
		t.Errorf("unswitched run reported switching: %+v %v", res.Worst, res.WorstNets)
	}
	if !math.IsNaN(res.Worst.Mean) || !math.IsNaN(res.Worst.P99) {
		t.Errorf("unswitched stats not NaN: %+v", res.Worst)
	}
	body, err := MarshalReport("c17", res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"mean": "NaN"`) {
		t.Errorf("NaN not canonically encoded:\n%s", body)
	}
}

// TestRunNLDMBackend: trials ride the table backend (plan.Eval non-nil,
// no CSM models) and stay deterministic across worker counts.
func TestRunNLDMBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("MC trials in short mode")
	}
	var ref []byte
	for _, w := range []int{1, 4} {
		cfg := c17Config(6)
		cfg.Backend.Kind = engine.BackendNLDM
		res, body := runC17(t, w, cfg)
		if res.Backend != engine.BackendNLDM {
			t.Fatalf("backend %s", res.Backend)
		}
		if res.Worst.Switched != 6 || !(res.Worst.Sigma > 0) {
			t.Errorf("nldm worst %+v", res.Worst)
		}
		if ref == nil {
			ref = body
		} else if !bytes.Equal(ref, body) {
			t.Errorf("nldm report differs at workers=%d", w)
		}
	}
}

// TestRunHybridBackend: every trial shares one hybrid plan, whose eval
// hook runs concurrently on many graphs; the report stays byte-identical
// across worker counts (and, under -race, the shared hook is race-clean).
func TestRunHybridBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("MC trials in short mode")
	}
	var ref []byte
	for _, w := range []int{1, 4} {
		cfg := c17Config(8)
		cfg.Backend.Kind = engine.BackendHybrid
		res, body := runC17(t, w, cfg)
		if res.Backend != engine.BackendHybrid {
			t.Fatalf("backend %s", res.Backend)
		}
		if res.Worst.Switched != 8 || !(res.Worst.Sigma > 0) {
			t.Errorf("hybrid worst %+v", res.Worst)
		}
		if ref == nil {
			ref = body
		} else if !bytes.Equal(ref, body) {
			t.Errorf("hybrid report differs at workers=%d", w)
		}
	}
}

func TestRunValidation(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	r := New(engine.New(1, sharedCache))
	ctx := context.Background()

	if _, err := r.Run(ctx, Config{Trials: 0}, nl, primary, opt); err == nil {
		t.Error("trials=0 accepted")
	}
	cfg := c17Config(1)
	cfg.SigmaVt = -1
	if _, err := r.Run(ctx, cfg, nl, primary, opt); err == nil {
		t.Error("negative sigma accepted")
	}
	noOut := &sta.Netlist{Instances: nl.Instances, PrimaryIn: nl.PrimaryIn}
	if _, err := r.Run(ctx, c17Config(1), noOut, primary, opt); err == nil {
		t.Error("netlist without outputs accepted")
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.Run(canceled, c17Config(4), nl, primary, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v", err)
	}
}

func TestForEachCorner(t *testing.T) {
	base := cells.Default130()
	corners := VtCorners([]float64{-0.045, 0, 0.045})
	if corners[1].Name != "nominal" || corners[0].Name != "-45mV" || corners[2].Name != "+45mV" {
		t.Fatalf("corner names %+v", corners)
	}

	for _, workers := range []int{1, 4} {
		eng := engine.New(workers, sharedCache)
		got := make([]float64, len(corners))
		err := ForEachCorner(eng, base, corners, func(i int, tech cells.Tech) error {
			got[i] = tech.NMOS.VT0
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range corners {
			if want := base.NMOS.VT0 + c.DVt; got[i] != want {
				t.Errorf("workers=%d corner %d VT0 %v want %v", workers, i, got[i], want)
			}
		}
		if base.NMOS.VT0 != cells.Default130().NMOS.VT0 {
			t.Fatal("ForEachCorner mutated the base technology")
		}
	}

	// Error propagation: the failure drains the pool and surfaces.
	var calls atomic.Int32
	err := ForEachCorner(engine.New(4, sharedCache), base, corners, func(i int, tech cells.Tech) error {
		calls.Add(1)
		if i == 1 {
			return errors.New("corner boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "corner boom") {
		t.Errorf("error not propagated: %v", err)
	}
	if calls.Load() == 0 {
		t.Error("no corner evaluated")
	}
}
