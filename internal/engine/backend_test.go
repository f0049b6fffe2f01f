package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/nldm"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

func TestParseBackendKind(t *testing.T) {
	cases := []struct {
		in   string
		want BackendKind
		ok   bool
	}{
		{"", BackendCSM, true},
		{"csm", BackendCSM, true},
		{"nldm", BackendNLDM, true},
		{"hybrid", BackendHybrid, true},
		{"spice", "", false},
		{"CSM", "", false},
	}
	for _, tc := range cases {
		got, err := ParseBackendKind(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseBackendKind(%q): err = %v", tc.in, err)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseBackendKind(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestBackendCSMBitIdentical: the csm backend must route through exactly
// the historical path — report bytes identical to AnalyzeCtx at every
// worker count.
func TestBackendCSMBitIdentical(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	spec := BackendSpec{Kind: BackendCSM, Tech: testutil.Tech(), CSM: testutil.CoarseConfig()}
	for _, workers := range []int{1, 4} {
		e := New(workers, nil)
		res, err := e.AnalyzeBackend(context.Background(), spec, nl, primary, opt)
		if err != nil {
			t.Fatal(err)
		}
		models, err := e.ModelsFor(spec.Tech, nl, spec.CSM)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := e.AnalyzeCtx(context.Background(), nl, models, primary, opt)
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireIdenticalReports(t, "csm backend vs AnalyzeCtx", res.Report, ref)
		if res.Plan.CSMStages != len(nl.Instances) || res.Plan.NLDMStages != 0 {
			t.Errorf("workers=%d: attribution %d/%d, want all csm",
				workers, res.Plan.CSMStages, res.Plan.NLDMStages)
		}
	}
}

// TestBackendHybridHugeMargin: margin beyond every finite slack
// degenerates the hybrid plan to all-CSM on a workload where every stage
// transitions, and its report is bit-identical to the pure CSM backend.
func TestBackendHybridHugeMargin(t *testing.T) {
	// A NAND2 chain with the side input held high: both stages transition
	// (finite slack), so a huge margin covers everything.
	nl, err := sta.ParseNetlist(strings.NewReader(`
input a b
output y
inst U1 NAND2 n1 a b
inst U2 NAND2 y n1 b
`))
	if err != nil {
		t.Fatal(err)
	}
	vdd := testutil.Tech().Vdd
	primary := map[string]wave.Waveform{
		"a": wave.SaturatedRamp(0, vdd, 1e-9, 80e-12, 2e-9),
		"b": wave.Constant(vdd, 0, 2e-9),
	}
	opt := sta.Options{Mode: sta.ModeMIS, Horizon: 2e-9, Dt: 4e-12}

	e := New(2, nil)
	hyb, err := e.AnalyzeBackend(context.Background(), BackendSpec{
		Kind: BackendHybrid, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(),
		Margin: 1, // 1 second: every finite slack qualifies
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Plan.NLDMStages != 0 || hyb.Plan.CSMStages != len(nl.Instances) {
		t.Fatalf("huge margin attribution %d/%d, want all csm", hyb.Plan.CSMStages, hyb.Plan.NLDMStages)
	}
	csmRes, err := e.AnalyzeBackend(context.Background(), BackendSpec{
		Kind: BackendCSM, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(),
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireIdenticalReports(t, "hybrid(all-csm) vs csm", hyb.Report, csmRes.Report)
}

// TestBackendNLDM: the table backend analyzes c17 close to CSM and
// attributes every stage to nldm.
func TestBackendNLDM(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	e := New(2, nil)
	res, err := e.AnalyzeBackend(context.Background(), BackendSpec{
		Kind: BackendNLDM, Tech: testutil.Tech(),
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.NLDMStages != len(nl.Instances) || res.Plan.CSMStages != 0 {
		t.Fatalf("attribution %d/%d, want all nldm", res.Plan.CSMStages, res.Plan.NLDMStages)
	}
	csmRes, err := e.AnalyzeBackend(context.Background(), BackendSpec{
		Kind: BackendCSM, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(),
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := csmRes.Report.WorstOutput(nl)
	if !ok {
		t.Fatal("no CSM worst output")
	}
	_, got, ok := res.Report.WorstOutput(nl)
	if !ok {
		t.Fatal("no NLDM worst output")
	}
	if d := math.Abs(got - want); d > 100e-12 {
		t.Errorf("NLDM worst arrival %g vs CSM %g (Δ %.1f ps)", got, want, d*1e12)
	}
}

// TestBackendHybridDefaultMargin: with the 10% default margin on c17 the
// plan is a genuine mix, and the worst arrival matches full CSM within
// the margin.
func TestBackendHybridDefaultMargin(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	e := New(2, nil)
	res, err := e.AnalyzeBackend(context.Background(), BackendSpec{
		Kind: BackendHybrid, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(),
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan
	if plan.Margin <= 0 {
		t.Fatalf("resolved margin %g", plan.Margin)
	}
	if plan.CSMStages == 0 {
		t.Error("no near-critical stages found")
	}
	if plan.CSMStages+plan.NLDMStages != len(nl.Instances) {
		t.Errorf("attribution counts %d+%d != %d", plan.CSMStages, plan.NLDMStages, len(nl.Instances))
	}
	attr := plan.Attribution(nl)
	if len(attr) != len(nl.Instances) {
		t.Errorf("attribution has %d entries", len(attr))
	}

	csmRes, err := e.AnalyzeBackend(context.Background(), BackendSpec{
		Kind: BackendCSM, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(),
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := csmRes.Report.WorstOutput(nl)
	_, got, _ := res.Report.WorstOutput(nl)
	if d := math.Abs(got - want); d > plan.Margin {
		t.Errorf("hybrid worst arrival off by %.1f ps (> margin %.1f ps)", d*1e12, plan.Margin*1e12)
	}
}

// TestNLDMForPreset: preloaded tables shadow characterization — even for
// cell types the catalog has never heard of.
func TestNLDMForPreset(t *testing.T) {
	e := New(1, nil)
	spec, err := cells.Get("NAND2")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := nldm.Characterize(testutil.Tech(), spec, nldm.DefaultConfig(testutil.Tech()))
	if err != nil {
		t.Fatal(err)
	}
	nl := &sta.Netlist{Instances: []sta.Instance{
		{Name: "U1", Type: "MYSTERY_GATE", Inputs: []string{"a", "b"}, Output: "y"},
	}}
	if _, err := e.NLDMFor(testutil.Tech(), nl, nldm.DefaultConfig(testutil.Tech()), nil); err == nil {
		t.Fatal("characterized a cell type outside the catalog")
	}
	libs, err := e.NLDMFor(testutil.Tech(), nl, nldm.DefaultConfig(testutil.Tech()),
		map[string]*nldm.Library{"MYSTERY_GATE": lib})
	if err != nil {
		t.Fatal(err)
	}
	if libs["MYSTERY_GATE"] != lib {
		t.Error("preset table not used verbatim")
	}
}

// TestNLDMCacheSingleflight: repeated plans reuse the characterized
// tables rather than re-running the solver.
func TestNLDMCacheSingleflight(t *testing.T) {
	e := New(2, nil)
	nl, primary, opt := testutil.C17Fixture(t)
	spec := BackendSpec{Kind: BackendNLDM, Tech: testutil.Tech()}
	if _, err := e.PlanBackend(context.Background(), spec, nl, primary, opt); err != nil {
		t.Fatal(err)
	}
	cfg := nldm.DefaultConfig(testutil.Tech())
	a, outcome, err := e.nldmGet(testutil.Tech(), "NAND2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeHit {
		t.Errorf("lookup after a plan: outcome %q, want %q", outcome, OutcomeHit)
	}
	b, _, err := e.nldmGet(testutil.Tech(), "NAND2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache returned distinct libraries for one key")
	}
}

// TestMarshalBackendReport: canonical bytes are deterministic and carry
// the attribution plus a critical path ending at the worst output.
func TestMarshalBackendReport(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	e := New(2, nil)
	res, err := e.AnalyzeBackend(context.Background(), BackendSpec{
		Kind: BackendHybrid, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(),
	}, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MarshalBackendReport("c17", nl, res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalBackendReport("c17", nl, res)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("marshaling is not deterministic")
	}
	g := CanonicalBackendReport("c17", nl, res)
	if g.Backend != "hybrid" || g.Stages != len(nl.Instances) {
		t.Errorf("header %q/%d", g.Backend, g.Stages)
	}
	if len(g.CriticalPath) == 0 {
		t.Fatal("no critical path")
	}
	last := g.CriticalPath[len(g.CriticalPath)-1]
	if last.Net != g.WorstOutput {
		t.Errorf("critical path ends at %s, worst output %s", last.Net, g.WorstOutput)
	}
	if first := g.CriticalPath[0]; first.Backend != "input" {
		t.Errorf("path start backend %q, want input", first.Backend)
	}
}
