package nldm_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/graph"
	"mcsm/internal/nldm"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

var (
	libOnce sync.Once
	libNAND *nldm.Library
	libErr  error
)

// nandLib characterizes one NAND2 NLDM library for the whole test file.
func nandLib(t *testing.T) *nldm.Library {
	t.Helper()
	libOnce.Do(func() {
		spec, err := cells.Get("NAND2")
		if err != nil {
			libErr = err
			return
		}
		libNAND, libErr = nldm.Characterize(testutil.Tech(), spec, nldm.DefaultConfig(testutil.Tech()))
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return libNAND
}

func c17Evaluator(t *testing.T) *nldm.Evaluator {
	t.Helper()
	ev, err := nldm.NewEvaluator(map[string]*nldm.Library{"NAND2": nandLib(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// tablePass propagates nl under the table calculator on a timing graph,
// recording every stage's candidate arcs — the hybrid backend's table
// pass. It returns the graph's report and the arcs.
func tablePass(t *testing.T, ev *nldm.Evaluator, nl *sta.Netlist, primary map[string]wave.Waveform, opt sta.Options) (*sta.Report, [][]nldm.StageEdge) {
	t.Helper()
	edges := make([][]nldm.StageEdge, len(nl.Instances))
	g, err := graph.Build(nl, nil, primary, opt, graph.Config{
		Workers: 2,
		Vdd:     ev.Vdd(),
		Eval: func(nlx *sta.Netlist, _ map[string]*csm.Model, idx int, waves map[string]wave.Waveform, _ csm.Load, _ float64, opt sta.Options) (wave.Waveform, int, error) {
			out, sw, es, err := ev.EvalStageEdges(nlx, idx, waves, opt)
			edges[idx] = es
			return out, sw, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	return g.Report(), edges
}

// TestAnalyzeC17VsCSM: the NLDM table pass over c17 must land near the
// CSM reference — same switching nets, arrivals within table-model error.
func TestAnalyzeC17VsCSM(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	rep, _ := tablePass(t, c17Evaluator(t), nl, primary, opt)
	csmRep, err := sta.Analyze(nl, testutil.CoarseNAND2Models(t), primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	for net, want := range csmRep.Nets {
		got, ok := rep.Nets[net]
		if !ok {
			t.Fatalf("net %s missing from NLDM report", net)
		}
		if math.IsNaN(want.Arrival) {
			// Static table lookup is logic-blind: it may propagate a
			// transition the simulator shows is suppressed by a controlling
			// side input (pessimism, never optimism). Nothing to compare.
			continue
		}
		if math.IsNaN(got.Arrival) {
			t.Errorf("net %s: CSM switches at %g but NLDM reports no transition", net, want.Arrival)
			continue
		}
		if d := math.Abs(got.Arrival - want.Arrival); d > 60e-12 {
			t.Errorf("net %s: NLDM arrival %g vs CSM %g (Δ %.1f ps)",
				net, got.Arrival, want.Arrival, d*1e12)
		}
		if got.Rising != want.Rising {
			t.Errorf("net %s: direction disagrees", net)
		}
	}
}

// TestSlacks: the critical path carries ~zero slack, nothing is
// meaningfully negative, and slacks grow off-critical.
func TestSlacks(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	rep, edges := tablePass(t, c17Evaluator(t), nl, primary, opt)
	if _, err := nldm.Slacks(nl, rep, edges[1:]); err == nil {
		t.Error("accepted an edge record per instance short")
	}
	slacks, err := nldm.Slacks(nl, rep, edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(slacks) != len(nl.Instances) {
		t.Fatalf("%d slacks for %d instances", len(slacks), len(nl.Instances))
	}
	minSlack := math.Inf(1)
	finite := 0
	for i, s := range slacks {
		if s < -1e-15 {
			t.Errorf("instance %s has negative slack %g", nl.Instances[i].Name, s)
		}
		if !math.IsInf(s, 1) {
			finite++
		}
		if s < minSlack {
			minSlack = s
		}
	}
	if finite == 0 {
		t.Fatal("no finite slacks")
	}
	// The worst path ends at Tmax by construction → min slack ≈ 0.
	if minSlack > 1e-15 {
		t.Errorf("min slack = %g, want ~0", minSlack)
	}
	if _, w, ok := rep.WorstOutput(nl); !ok || w <= 0 {
		t.Errorf("worst arrival = %g", w)
	}
}

// TestSlacksWithoutOutputs: a netlist that declares no primary outputs
// has no required times, so no stage is near-critical.
func TestSlacksWithoutOutputs(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	bare := nl.Clone()
	bare.PrimaryOut = nil
	rep, edges := tablePass(t, c17Evaluator(t), bare, primary, opt)
	slacks, err := nldm.Slacks(bare, rep, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slacks {
		if !math.IsInf(s, 1) {
			t.Errorf("stage %s: slack %g with no required times", bare.Instances[i].Name, s)
		}
	}
}

// TestEvalStageStatic: a stage with settled inputs produces the boolean
// constant, not a transition.
func TestEvalStageStatic(t *testing.T) {
	nl, _, opt := testutil.C17Fixture(t)
	ev := c17Evaluator(t)
	opt = sta.ResolveOptions(nil, opt)
	vdd := ev.Vdd()
	waves := map[string]wave.Waveform{}
	for _, net := range nl.PrimaryIn {
		waves[net] = wave.Constant(vdd, 0, opt.Horizon) // all high
	}
	order, err := nl.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range order {
		w, sw, err := ev.EvalStage(nl, idx, waves, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sw != 0 {
			t.Errorf("stage %s: switching = %d, want 0", nl.Instances[idx].Name, sw)
		}
		waves[nl.Instances[idx].Output] = w
	}
	// c17 is NAND-only: all-high inputs drive first level low, etc. Spot
	// check levels are rail-to-rail constants.
	for net, w := range waves {
		if v := w.First(); v != 0 && v != vdd {
			t.Errorf("net %s: static level %g not a rail", net, v)
		}
		if w.First() != w.Last() {
			t.Errorf("net %s: static net moved", net)
		}
	}
}

func TestStaticLevelFunctions(t *testing.T) {
	ev, err := nldm.NewEvaluator(map[string]*nldm.Library{"NAND2": nandLib(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vdd := ev.Vdd()
	cases := []struct {
		typ  string
		nets []string
		high []bool
		want bool
	}{
		{"NAND2", []string{"a", "b"}, []bool{true, true}, false},
		{"NAND2", []string{"a", "b"}, []bool{true, false}, true},
		{"NAND2_X2", []string{"a", "b"}, []bool{false, false}, true},
	}
	for _, tc := range cases {
		nl := &sta.Netlist{Instances: []sta.Instance{{Name: "U1", Type: tc.typ, Inputs: tc.nets, Output: "y"}}}
		waves := map[string]wave.Waveform{}
		for i, net := range tc.nets {
			v := 0.0
			if tc.high[i] {
				v = vdd
			}
			waves[net] = wave.Constant(v, 0, 1e-9)
		}
		// Variants need a library too; reuse the base table set.
		ev2, err := nldm.NewEvaluator(map[string]*nldm.Library{tc.typ: nandLib(t)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := ev2.EvalStage(nl, 0, waves, sta.Options{Horizon: 1e-9, Dt: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.First() > vdd/2; got != tc.want {
			t.Errorf("%s%v: output %v, want %v", tc.typ, tc.high, got, tc.want)
		}
	}
}

func TestEvaluatorErrors(t *testing.T) {
	if _, err := nldm.NewEvaluator(map[string]*nldm.Library{"X": {}}, nil); err == nil {
		t.Error("accepted library with no arcs")
	}
	a := nandLib(t)
	bad := &nldm.Library{Vdd: a.Vdd + 1, Arcs: a.Arcs, InputCap: a.InputCap}
	if _, err := nldm.NewEvaluator(map[string]*nldm.Library{"A": a, "B": bad}, nil); err == nil {
		t.Error("accepted mixed supply voltages")
	}

	ev, err := nldm.NewEvaluator(map[string]*nldm.Library{"NAND2": a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl := &sta.Netlist{Instances: []sta.Instance{{Name: "U1", Type: "NOR2", Inputs: []string{"x", "y"}, Output: "z"}}}
	waves := map[string]wave.Waveform{
		"x": wave.Constant(0, 0, 1e-9),
		"y": wave.Constant(0, 0, 1e-9),
	}
	_, _, err = ev.EvalStage(nl, 0, waves, sta.Options{Horizon: 1e-9})
	if err == nil || !strings.Contains(err.Error(), "no library") {
		t.Errorf("unknown cell type: %v", err)
	}

	// An evaluator without libraries has no rail, so no table-only graph
	// can be built on it.
	empty, err := nldm.NewEvaluator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Vdd() != 0 {
		t.Errorf("empty evaluator Vdd = %g", empty.Vdd())
	}
	eval := func(nlx *sta.Netlist, _ map[string]*csm.Model, idx int, waves map[string]wave.Waveform, _ csm.Load, _ float64, opt sta.Options) (wave.Waveform, int, error) {
		return empty.EvalStage(nlx, idx, waves, opt)
	}
	if _, err := graph.Build(&sta.Netlist{}, nil, nil, sta.Options{}, graph.Config{Eval: eval, Vdd: empty.Vdd()}); err == nil {
		t.Error("empty evaluator analyzed")
	}
}

// TestEvaluatorLibFor: cell types first seen mid-analysis resolve through
// the fallback exactly once.
func TestEvaluatorLibFor(t *testing.T) {
	calls := 0
	ev, err := nldm.NewEvaluator(nil, func(cell string) (*nldm.Library, error) {
		calls++
		if cell != "NAND2" {
			t.Fatalf("unexpected libFor(%s)", cell)
		}
		return nandLib(t), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nl := &sta.Netlist{Instances: []sta.Instance{
		{Name: "U1", Type: "NAND2", Inputs: []string{"a", "b"}, Output: "y"},
		{Name: "U2", Type: "NAND2", Inputs: []string{"y", "b"}, Output: "z"},
	}}
	vdd := nandLib(t).Vdd
	waves := map[string]wave.Waveform{
		"a": wave.SaturatedRamp(0, vdd, 100e-12, 80e-12, 2e-9),
		"b": wave.Constant(vdd, 0, 2e-9),
	}
	opt := sta.Options{Horizon: 2e-9, Dt: 1e-12}
	order := []int{0, 1}
	for _, idx := range order {
		w, _, err := ev.EvalStage(nl, idx, waves, opt)
		if err != nil {
			t.Fatal(err)
		}
		waves[nl.Instances[idx].Output] = w
	}
	if calls != 1 {
		t.Errorf("libFor called %d times, want 1 (memoized)", calls)
	}
	// a rising with b high: y falls, z rises.
	if cs := waves["z"].Crossings(vdd / 2); len(cs) == 0 || !cs[0].Rising {
		t.Error("z should rise")
	}
}
