package engine

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/graph"
	"mcsm/internal/netlist"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

// coarseCache keeps the coarse INV/NAND2/NOR2 models warm across the
// c432 tests, and refineEngine shares it (and its NLDM tables) across the
// refinement tests; a graph's worker count comes from its own config.
var (
	coarseCache  = NewModelCache()
	refineEngine = New(2, coarseCache)
)

// refineCase is one hybrid workload of the refinement invariant, with an
// ECO script replayed on the refined graph and on a cold build of its plan.
type refineCase struct {
	name    string
	nl      *sta.Netlist
	primary map[string]wave.Waveform
	opt     sta.Options
	margin  float64 // 0 = the default margin
	script  [][]graph.Edit
}

// c432Workload is the mapped c432-class corpus circuit under the staggered
// corpus stimulus, at the hybrid golden fixture's window and step.
func c432Workload(t *testing.T) (*sta.Netlist, map[string]wave.Waveform, sta.Options) {
	t.Helper()
	f, err := os.Open("../netlist/testdata/c432.bench")
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
	const horizon = 2.6e-9
	return nl, netlist.Stimulus(nl.PrimaryIn, testutil.Tech().Vdd, 80e-12, horizon), sta.Options{Horizon: horizon, Dt: 4e-12}
}

// nandChain is a two-stage NAND2 chain whose every stage transitions, so a
// huge margin routes all of it to CSM.
func nandChain(t *testing.T) (*sta.Netlist, map[string]wave.Waveform, sta.Options) {
	t.Helper()
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
	return nl, map[string]wave.Waveform{
		"a": wave.SaturatedRamp(0, vdd, 1e-9, 80e-12, 2e-9),
		"b": wave.Constant(vdd, 0, 2e-9),
	}, sta.Options{Mode: sta.ModeMIS, Horizon: 2e-9, Dt: 4e-12}
}

func refineCases(t *testing.T) []refineCase {
	c17, c17In, c17Opt := testutil.C17Fixture(t)
	c432, c432In, c432Opt := c432Workload(t)
	chain, chainIn, chainOpt := nandChain(t)
	return []refineCase{
		// The scripts swap only among INV/NAND2/NOR2, so no model beyond
		// the c432 set characterizes (the served X2 swaps are pinned by the
		// c432_hybrid_eco golden fixture).
		{name: "c17-default-margin", nl: c17, primary: c17In, opt: c17Opt, script: [][]graph.Edit{
			{{Op: "swap_cell", Inst: "G16", Type: "NOR2"}, {Op: "set_load", Net: "n16", Cap: "3f"}},
			{{Op: "set_arrival", Net: "n3", Wave: "rise@1.02n"}},
			{{Op: "swap_cell", Inst: "G16", Type: "NAND2"}, {Op: "swap_cell", Inst: "G22", Type: "NOR2"}},
		}},
		{name: "c432-150ps", nl: c432, primary: c432In, opt: c432Opt, margin: 150e-12, script: [][]graph.Edit{
			{{Op: "swap_cell", Inst: "gn21", Type: "NAND2"}, {Op: "set_load", Net: "n21", Cap: "3f"}, {Op: "swap_cell", Inst: "gn8$5", Type: "NOR2"}},
			{{Op: "set_arrival", Net: "i12", Wave: "rise@1.05n"}},
			{{Op: "swap_cell", Inst: "gn21", Type: "NOR2"}, {Op: "set_load", Net: "n148", Cap: "2f"}},
		}},
		{name: "chain-all-csm", nl: chain, primary: chainIn, opt: chainOpt, margin: 1, script: [][]graph.Edit{
			{{Op: "swap_cell", Inst: "U2", Type: "NOR2"}},
			{{Op: "set_load", Net: "n1", Cap: "2f"}, {Op: "set_arrival", Net: "a", Wave: "fall@1.1n"}},
		}},
	}
}

// modelForCache resolves swap-introduced cell types through an engine's
// model cache, as the sessions' graphs do.
func modelForCache(e *Engine, cfg csm.Config) func(string) (*csm.Model, error) {
	return func(cellType string) (*csm.Model, error) {
		spec, err := cells.Get(cellType)
		if err != nil {
			return nil, err
		}
		return e.Cache().Get(testutil.Tech(), spec, KindFor(spec), cfg)
	}
}

// TestHybridRefinementMatchesColdBuild is the refinement invariant: the
// graph BackendGraph refines in place reports exactly what a fresh
// graph.Build of the same plan propagates, and an ECO script replayed on
// both yields byte-identical deltas, at every worker count.
func TestHybridRefinementMatchesColdBuild(t *testing.T) {
	ctx := context.Background()
	e := refineEngine
	for _, c := range refineCases(t) {
		for _, workers := range []int{1, 4} {
			spec := BackendSpec{Kind: BackendHybrid, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(), Margin: c.margin}
			modelFor := modelForCache(e, spec.CSM)
			plan, refined, _, err := e.BackendGraph(ctx, spec, c.nl, c.primary, c.opt,
				graph.Config{Workers: workers, ModelFor: modelFor})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if plan.CSMStages == 0 {
				t.Fatalf("%s: no stage refined", c.name)
			}
			cold, err := graph.Build(c.nl, plan.Models, c.primary, c.opt, plan.GraphConfig(workers, modelFor))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cold.Propagate(ctx); err != nil {
				t.Fatal(err)
			}
			label := c.name + " workers=" + string(rune('0'+workers))
			testutil.RequireIdenticalReports(t, label, refined.Report(), cold.Report())
			got, err := MarshalBackendReport(c.name, c.nl, &BackendResult{Plan: plan, Report: refined.Report(), Graph: refined})
			if err != nil {
				t.Fatal(err)
			}
			want, err := MarshalBackendReport(c.name, c.nl, &BackendResult{Plan: plan, Report: cold.Report(), Graph: cold})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: backend report bytes differ between refined and cold graphs", label)
			}

			for bi, batch := range c.script {
				var deltas [2][]byte
				for gi, g := range []*graph.TimingGraph{refined, cold} {
					n, err := g.ApplyBatch(batch)
					if err != nil {
						t.Fatalf("%s batch %d: %v", label, bi, err)
					}
					stats, err := g.Propagate(ctx)
					if err != nil {
						t.Fatalf("%s batch %d: %v", label, bi, err)
					}
					if deltas[gi], err = graph.MarshalDelta(g.Delta(c.name, n, stats)); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(deltas[0], deltas[1]) {
					t.Errorf("%s batch %d: refined and cold deltas differ", label, bi)
				}
			}
		}
	}
}

// TestHybridRefinementCost pins the economy of refining in place on the
// c432 150 ps fixture workload: the 13 near-critical stages take exactly
// one CSM solve each, and the refinement re-evaluates only their cone on
// top of the one table pass over all 552 stages.
func TestHybridRefinementCost(t *testing.T) {
	ctx := context.Background()
	nl, primary, opt := c432Workload(t)
	e := refineEngine
	spec := BackendSpec{Kind: BackendHybrid, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(), Margin: 150e-12}
	plan, g, err := e.plan(ctx, spec, nl, primary, opt, graph.Config{Workers: 2, ShareNetlist: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.StageEvals(); got != int64(len(nl.Instances)) {
		t.Errorf("table pass evaluated %d stages, want %d", got, len(nl.Instances))
	}
	if plan.CSMStages != 13 {
		t.Errorf("plan refines %d stages, want 13", plan.CSMStages)
	}

	var csmSolves, tableEvals atomic.Int64
	counted := func(nlx *sta.Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt sta.Options) (wave.Waveform, int, error) {
		if plan.Assign[idx] == BackendCSM {
			csmSolves.Add(1)
		} else {
			tableEvals.Add(1)
		}
		return plan.Eval(nlx, models, idx, waves, load, vdd, opt)
	}
	// plan left the graph flipped; a counting copy of its hook changes no
	// output and no dirty stage.
	if err := g.SetBackend(counted, nil, nil); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Propagate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := csmSolves.Load(); got != 13 {
		t.Errorf("refinement ran %d CSM solves, want 13", got)
	}
	cone := int64(stats.StagesEvaluated)
	if total := g.StageEvals(); total != int64(len(nl.Instances))+cone || cone >= int64(len(nl.Instances)) {
		t.Errorf("%d stage evaluations in all, refinement cone %d of %d stages", total, cone, len(nl.Instances))
	}
	t.Logf("c432 150 ps: %d table + %d refinement evaluations (%d CSM solves, %d table re-evaluations)",
		len(nl.Instances), cone, csmSolves.Load(), tableEvals.Load())

	// BackendGraph takes the same path: the same count, the same bytes.
	res, err := e.AnalyzeBackend(ctx, spec, nl, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.StageEvals() != g.StageEvals() {
		t.Errorf("AnalyzeBackend evaluated %d stages, the refinement above %d", res.Graph.StageEvals(), g.StageEvals())
	}
	testutil.RequireIdenticalReports(t, "AnalyzeBackend vs counted refinement", res.Report, g.Report())
}

// TestSwapCellModelGrowthRefreshesLoads: a swap that brings a new cell
// type into a hybrid graph's model set turns the type's other instances
// into modeled receivers, so the loads on the nets feeding them change.
// Here V1 (NOR2) hangs off n1 unmodeled until U4 swaps to NOR2; n1's
// driver must then see V1's receiver, exactly as a cold build does.
func TestSwapCellModelGrowthRefreshesLoads(t *testing.T) {
	ctx := context.Background()
	nl, err := sta.ParseNetlist(strings.NewReader(`
input a h1 lo
output y z
inst U1 NAND2 n1 a h1
inst U2 NAND2 n2 n1 h1
inst U3 NAND2 n3 n2 h1
inst U4 NAND2 y n3 h1
inst V1 NOR2 z n1 lo
`))
	if err != nil {
		t.Fatal(err)
	}
	vdd := testutil.Tech().Vdd
	primary := map[string]wave.Waveform{
		"a":  wave.SaturatedRamp(0, vdd, 1e-9, 80e-12, 3e-9),
		"h1": wave.Constant(vdd, 0, 3e-9),
		"lo": wave.Constant(0, 0, 3e-9),
	}
	opt := sta.Options{Horizon: 3e-9, Dt: 4e-12}
	e := refineEngine
	spec := BackendSpec{Kind: BackendHybrid, Tech: testutil.Tech(), CSM: testutil.CoarseConfig(), Margin: 1e-12}
	modelFor := modelForCache(e, spec.CSM)
	plan, g, _, err := e.BackendGraph(ctx, spec, nl, primary, opt, graph.Config{Workers: 2, ModelFor: modelFor})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Models["NAND2"]; !ok || len(plan.Models) != 1 {
		t.Fatalf("CSM model set %v, want {NAND2}", plan.Models)
	}
	if err := g.SwapCell("U4", "NOR2"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(ctx); err != nil {
		t.Fatal(err)
	}
	cold, err := graph.Build(g.Netlist().Clone(), g.Models(), g.PrimaryWaves(), g.Options(), plan.GraphConfig(2, modelFor))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Propagate(ctx); err != nil {
		t.Fatal(err)
	}
	testutil.RequireIdenticalReports(t, "swap-grown model set vs cold build", g.Report(), cold.Report())
}
