package graph_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/netlist"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

// coldReport analyzes the graph's current (edited) netlist from scratch
// through the one-shot engine path — the reference the incremental state
// must match bit-for-bit.
func coldReport(t *testing.T, g *graph.TimingGraph, workers int) *sta.Report {
	t.Helper()
	eng := engine.New(workers, nil)
	rep, err := eng.Analyze(g.Netlist().Clone(), g.Models(), g.PrimaryWaves(), g.Options())
	if err != nil {
		t.Fatalf("cold analysis: %v", err)
	}
	return rep
}

// requireMatchesCold asserts the retained state equals a cold run of the
// edited netlist, both structurally and at the canonical byte level.
func requireMatchesCold(t *testing.T, label string, g *graph.TimingGraph, workers int) {
	t.Helper()
	inc := g.Report()
	cold := coldReport(t, g, workers)
	testutil.RequireIdenticalReports(t, label, inc, cold)
	incBytes, err := sta.MarshalGoldenReport("x", inc)
	if err != nil {
		t.Fatal(err)
	}
	coldBytes, err := sta.MarshalGoldenReport("x", cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(incBytes, coldBytes) {
		t.Errorf("%s: golden bytes drifted between incremental and cold", label)
	}
}

// buildC17 returns a fresh c17 graph over the memoized fast NAND2/NOR2/INV
// models, fully propagated.
func buildC17(t *testing.T, workers int) *graph.TimingGraph {
	t.Helper()
	nl, primary, opt := testutil.C17Fixture(t)
	g, err := graph.Build(nl, testutil.FastModels(t), primary, opt, graph.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := g.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.StagesEvaluated != len(nl.Instances) {
		t.Fatalf("cold propagate evaluated %d of %d stages", stats.StagesEvaluated, len(nl.Instances))
	}
	return g
}

// workerCounts is the invariant-test matrix: serial, a small pool, and
// everything the host has.
func workerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestBuildPropagateMatchesEngine pins the basic contract: build + full
// propagate reproduces the one-shot engine analysis bit-for-bit.
func TestBuildPropagateMatchesEngine(t *testing.T) {
	for _, workers := range workerCounts() {
		g := buildC17(t, workers)
		requireMatchesCold(t, fmt.Sprintf("workers=%d", workers), g, workers)
	}
}

// randomEdit applies one random-but-valid edit drawn from all four ops.
// Rewires that would create loops are rejected by the API and count as
// no-ops (the rejection path is itself under test: the graph must stay
// consistent).
func randomEdit(t *testing.T, rng *rand.Rand, g *graph.TimingGraph) {
	t.Helper()
	nl := g.Netlist()
	var nets []string
	nets = append(nets, nl.PrimaryIn...)
	for _, inst := range nl.Instances {
		nets = append(nets, inst.Output)
	}
	switch rng.Intn(4) {
	case 0: // swap_cell between the 2-input types
		idx := rng.Intn(len(nl.Instances))
		inst := nl.Instances[idx]
		if len(inst.Inputs) != 2 {
			return
		}
		to := "NOR2"
		if inst.Type == "NOR2" {
			to = "NAND2"
		}
		if err := g.SwapCell(inst.Name, to); err != nil {
			t.Fatalf("swap_cell %s -> %s: %v", inst.Name, to, err)
		}
	case 1: // set_arrival: a fresh ramp on a random primary input
		net := nl.PrimaryIn[rng.Intn(len(nl.PrimaryIn))]
		at := 0.8e-9 + rng.Float64()*0.6e-9
		slew := 40e-12 + rng.Float64()*80e-12
		w := wave.SaturatedRamp(0, g.Vdd(), at, slew, g.Options().Horizon)
		if rng.Intn(2) == 1 {
			w = wave.SaturatedRamp(g.Vdd(), 0, at, slew, g.Options().Horizon)
		}
		if err := g.SetArrival(net, w); err != nil {
			t.Fatalf("set_arrival %s: %v", net, err)
		}
	case 2: // rewire a random pin to a random net (loops may be rejected)
		idx := rng.Intn(len(nl.Instances))
		inst := nl.Instances[idx]
		pin := rng.Intn(len(inst.Inputs))
		target := nets[rng.Intn(len(nets))]
		if err := g.Rewire(inst.Name, pin, target); err != nil {
			t.Logf("rewire rejected (expected for loops): %v", err)
		}
	default: // set_load
		net := nets[rng.Intn(len(nets))]
		if err := g.SetLoad(net, rng.Float64()*10e-15); err != nil {
			t.Fatalf("set_load %s: %v", net, err)
		}
	}
}

// TestIncrementalEqualsColdC17 is the headline invariant on c17: random
// edit sequences, propagated incrementally, must leave retained state
// bit-identical to a cold full analysis of the edited netlist — at every
// worker count.
func TestIncrementalEqualsColdC17(t *testing.T) {
	for _, workers := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17*int64(workers) + 1))
			g := buildC17(t, workers)
			for batch := 0; batch < 5; batch++ {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					randomEdit(t, rng, g)
				}
				if _, err := g.Propagate(context.Background()); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if g.DirtyCount() != 0 {
					t.Fatalf("batch %d: %d stages still dirty after Propagate", batch, g.DirtyCount())
				}
				requireMatchesCold(t, fmt.Sprintf("batch %d", batch), g, workers)
			}
		})
	}
}

// TestIncrementalEqualsColdGenerated extends the invariant to a seeded
// mid-size mapped circuit (INV/NAND2/NOR2 mix, multi-fanout, deeper
// levels) so the dirty-frontier bookkeeping is exercised beyond c17's six
// gates.
func TestIncrementalEqualsColdGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size invariant sweep in -short mode")
	}
	spec := netlist.ISCASSpec(48)
	circ, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.Map(circ)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := nl.Levels()
	if err != nil {
		t.Fatal(err)
	}
	const slew = 80e-12
	horizon := netlist.Horizon(len(levels), slew)
	primary := netlist.Stimulus(nl.PrimaryIn, testutil.Tech().Vdd, slew, horizon)
	opt := sta.Options{Horizon: horizon, Dt: 4e-12}

	for _, workers := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g, err := graph.Build(nl, testutil.FastModels(t), primary, opt, graph.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Propagate(context.Background()); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(480 + int64(workers)))
			for batch := 0; batch < 2; batch++ {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					randomEdit(t, rng, g)
				}
				stats, err := g.Propagate(context.Background())
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				t.Logf("batch %d: %d/%d stages re-evaluated (%.0f%%), %d converged, %d nets changed",
					batch, stats.StagesEvaluated, stats.StagesTotal,
					100*stats.ReevalFraction(), stats.StagesConverged, len(stats.ChangedNets))
				requireMatchesCold(t, fmt.Sprintf("batch %d", batch), g, workers)
			}
		})
	}
}

// TestReevalFractionC432 pins the economy claim the incremental layer
// exists for: a single-gate ECO on the mid-size corpus circuit must
// re-evaluate well under 30% of the stages (the measured numbers are
// recorded in EXPERIMENTS.md).
func TestReevalFractionC432(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size eco economy check in -short mode")
	}
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
	eng := engine.New(0, nil)
	models, err := eng.ModelsFor(testutil.Tech(), nl, testutil.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2.6e-9
	primary := netlist.Stimulus(nl.PrimaryIn, testutil.Tech().Vdd, 80e-12, horizon)
	g, err := graph.Build(nl, models, primary, sta.Options{Horizon: horizon, Dt: 4e-12}, graph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A waveform-exact incremental engine must re-evaluate the edited
	// gate's full transitive fanout cone (plus its fanin drivers, whose
	// loads change) — on c432 that is structurally 0.5%…79% of the
	// circuit depending on depth, mean 37.7% over all gates, so the
	// economy of an edit is set by where it lands. ECO edits land near
	// the timing endpoints: sample one mid-level gate from each of five
	// levels in the deeper half of the 67-level circuit and bound the
	// mean measured fraction there (<30% with a wide margin; the shallow
	// tail is recorded honestly in EXPERIMENTS.md).
	levels, err := g.Netlist().Levels()
	if err != nil {
		t.Fatal(err)
	}
	var fracSum float64
	edits := 0
	for k := 0; k < 5; k++ {
		li := len(levels)/2 + k*(len(levels)-1-len(levels)/2)/4
		level := levels[li]
		idx := -1
		for _, cand := range level {
			if len(nl.Instances[cand].Inputs) == 2 {
				idx = cand
				break
			}
		}
		if idx < 0 {
			continue // all-INV level: no 2-input swap available
		}
		inst := nl.Instances[idx]
		to := "NOR2"
		if inst.Type == "NOR2" {
			to = "NAND2"
		}
		if err := g.SwapCell(inst.Name, to); err != nil {
			t.Fatal(err)
		}
		stats, err := g.Propagate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		frac := stats.ReevalFraction()
		fracSum += frac
		edits++
		t.Logf("level %d swap %s (%s->%s): %d/%d stages re-evaluated (%.1f%%), %d nets changed",
			li, inst.Name, inst.Type, to, stats.StagesEvaluated, stats.StagesTotal,
			100*frac, len(stats.ChangedNets))
	}
	if edits == 0 {
		t.Fatal("no swappable gates found in the deep levels")
	}
	mean := fracSum / float64(edits)
	t.Logf("mean re-evaluated fraction over %d deep-half single-gate edits: %.1f%%", edits, 100*mean)
	if mean >= 0.30 {
		t.Errorf("mean re-evaluated fraction %.2f, want < 0.30", mean)
	}
	requireMatchesCold(t, "c432 after single-gate edits", g, 0)
}

// TestInputFingerprintAndConvergenceCutoffs drives the two pruning
// mechanisms deterministically: a rewire-there-and-back batch leaves the
// graph semantically unchanged, so the rewired stage must be skipped by
// the input cutoff and the load-bumped driver must converge
// without propagating.
func TestInputFingerprintAndConvergenceCutoffs(t *testing.T) {
	g := buildC17(t, 1)
	// G19's pin 1 is n7. Rewire it to n10 (driven by G10) and back.
	if err := g.Rewire("G19", 1, "n10"); err != nil {
		t.Fatal(err)
	}
	if err := g.Rewire("G19", 1, "n7"); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// G19 is dirty but its type, output-load generation, and input waves
	// are unchanged -> input cutoff. G10 saw its output load bumped twice
	// (fanout membership of n10 changed and changed back) -> re-evaluated,
	// output bit-identical -> convergence cutoff. Nothing changes.
	if stats.StagesSkipped != 1 {
		t.Errorf("skipped = %d, want 1 (G19 via input cutoff)", stats.StagesSkipped)
	}
	if stats.StagesEvaluated != 1 || stats.StagesConverged != 1 {
		t.Errorf("evaluated/converged = %d/%d, want 1/1 (G10 converges)",
			stats.StagesEvaluated, stats.StagesConverged)
	}
	if len(stats.ChangedNets) != 0 {
		t.Errorf("changed nets = %v, want none", stats.ChangedNets)
	}
	requireMatchesCold(t, "rewire there-and-back", g, 1)
}

// TestConeLimitedPropagation checks the economy claim on c17: an edit at
// the fanout frontier (G22's load) re-evaluates only its driver cone, not
// the circuit.
func TestConeLimitedPropagation(t *testing.T) {
	g := buildC17(t, 1)
	if err := g.SetLoad("n22", 4e-15); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// n22 is a primary output driven by G22: only G22 re-evaluates (its
	// output has no fanout stages).
	if stats.StagesEvaluated != 1 {
		t.Errorf("evaluated = %d, want 1 (G22 only)", stats.StagesEvaluated)
	}
	if want := []string{"n22"}; len(stats.ChangedNets) != 1 || stats.ChangedNets[0] != want[0] {
		t.Errorf("changed nets = %v, want %v", stats.ChangedNets, want)
	}
	if frac := stats.ReevalFraction(); frac > 0.2 {
		t.Errorf("reeval fraction = %.2f, want <= 1/6", frac)
	}
	requireMatchesCold(t, "set_load n22", g, 1)
}

// TestSISModeInvariant runs one edit round under ModeSIS so the
// conventional-assumption path of EvalStageWithLoad stays under the same
// incremental-equals-cold contract.
func TestSISModeInvariant(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	opt.Mode = sta.ModeSIS
	g, err := graph.Build(nl, testutil.FastModels(t), primary, opt, graph.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.SwapCell("G16", "NOR2"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireMatchesCold(t, "sis swap", g, 2)
}

// TestPropagateCancellation: a canceled context aborts between levels,
// retains the dirty set, and a later propagate completes and still
// matches cold.
func TestPropagateCancellation(t *testing.T) {
	g := buildC17(t, 1)
	if err := g.SwapCell("G10", "NOR2"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Propagate(ctx); err != context.Canceled {
		t.Fatalf("propagate under canceled ctx: err = %v, want context.Canceled", err)
	}
	if g.DirtyCount() == 0 {
		t.Fatal("canceled propagate drained the dirty set")
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireMatchesCold(t, "after cancellation", g, 1)
}

// TestEditValidation table-drives the rejection paths; every rejected
// edit must leave the graph consistent (checked by a final cold compare).
func TestEditValidation(t *testing.T) {
	g := buildC17(t, 1)
	cases := []struct {
		name string
		do   func() error
	}{
		{"swap unknown instance", func() error { return g.SwapCell("GX", "NOR2") }},
		{"swap unknown type", func() error { return g.SwapCell("G10", "XOR9") }},
		{"swap pin-count mismatch", func() error { return g.SwapCell("G10", "INV") }},
		{"arrival on non-primary", func() error {
			return g.SetArrival("n10", wave.Constant(0, 0, g.Options().Horizon))
		}},
		{"arrival empty wave", func() error { return g.SetArrival("n1", wave.Waveform{}) }},
		{"rewire unknown instance", func() error { return g.Rewire("GX", 0, "n1") }},
		{"rewire pin out of range", func() error { return g.Rewire("G10", 2, "n1") }},
		{"rewire negative pin", func() error { return g.Rewire("G10", -1, "n1") }},
		{"rewire to undriven net", func() error { return g.Rewire("G10", 0, "nope") }},
		{"rewire self-loop", func() error { return g.Rewire("G10", 0, "n10") }},
		{"rewire cycle", func() error { return g.Rewire("G10", 0, "n22") }},
		{"load unknown net", func() error { return g.SetLoad("nope", 1e-15) }},
		{"load negative", func() error { return g.SetLoad("n22", -1e-15) }},
	}
	for _, tc := range cases {
		if err := tc.do(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if g.Edits() != 0 {
		t.Errorf("rejected edits were counted: %d", g.Edits())
	}
	stats, err := g.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.StagesEvaluated+stats.StagesSkipped != 0 {
		t.Errorf("rejected edits dirtied stages: %+v", stats)
	}
	requireMatchesCold(t, "after rejections", g, 1)
}

// TestSwapCellModelFor exercises characterize-on-demand: a c17 graph
// built with only the NAND2 model swaps a gate to NOR2 through the
// ModelFor hook; without the hook the same swap errors.
func TestSwapCellModelFor(t *testing.T) {
	all := testutil.FastModels(t)
	nand2Only := map[string]*csm.Model{"NAND2": all["NAND2"]}
	nl, primary, opt := testutil.C17Fixture(t)

	bare, err := graph.Build(nl, nand2Only, primary, opt, graph.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := bare.SwapCell("G10", "NOR2"); err == nil {
		t.Fatal("swap to unmodeled type accepted without ModelFor")
	}

	hooked, err := graph.Build(nl, nand2Only, primary, opt, graph.Config{
		Workers: 1,
		ModelFor: func(cellType string) (*csm.Model, error) {
			m, ok := all[cellType]
			if !ok {
				return nil, fmt.Errorf("no model for %s", cellType)
			}
			return m, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hooked.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := hooked.SwapCell("G10", "NOR2"); err != nil {
		t.Fatal(err)
	}
	if _, err := hooked.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := hooked.Models()["NOR2"]; !ok {
		t.Error("on-demand model missing from Models()")
	}
	requireMatchesCold(t, "swap via ModelFor", hooked, 1)
}

// TestSetBackend: switching the evaluator in place re-evaluates exactly
// the listed stages, grows the model set (refreshing the loads its new
// receivers change), and leaves the graph equal to a cold build under the
// new evaluator; malformed switches change nothing.
func TestSetBackend(t *testing.T) {
	all := testutil.FastModels(t)
	_, primary, opt := testutil.C17Fixture(t)
	// c17 with G19 retyped NOR2: a receiver on n11 (driven by G11) that
	// the NAND2-only model set does not see.
	nl, err := sta.ParseNetlist(strings.NewReader(strings.Replace(sta.C17Netlist, "G19 NAND2", "G19 NOR2", 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Before the switch G19 runs on a fixed load, a calculator that
	// ignores the graph's stage load.
	fixed := func(nlx *sta.Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt sta.Options) (wave.Waveform, int, error) {
		if nlx.Instances[idx].Type == "NOR2" {
			return sta.EvalStageWithLoad(nlx, all, idx, waves, csm.CapLoad(2e-15), vdd, opt)
		}
		return sta.EvalStageWithLoad(nlx, models, idx, waves, load, vdd, opt)
	}
	g, err := graph.Build(nl, map[string]*csm.Model{"NAND2": all["NAND2"]}, primary, opt, graph.Config{Workers: 2, Eval: fixed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}

	n := len(nl.Instances)
	if err := g.SetBackend(nil, nil, []int{n}); err == nil {
		t.Error("accepted an out-of-range stage")
	}
	offRail := &csm.Model{Vdd: g.Vdd() + 0.1}
	if err := g.SetBackend(nil, map[string]*csm.Model{"NOR2": all["NOR2"], "INV": offRail}, nil); err == nil {
		t.Error("accepted a model off the graph's rail")
	}
	if len(g.Models()) != 1 || g.DirtyCount() != 0 {
		t.Fatalf("rejected switches changed the graph: %d models, %d dirty", len(g.Models()), g.DirtyCount())
	}

	// G19 moves to the graph's own loads; G11, which reads its load, sees
	// the new NOR2 receiver on n11. Both re-evaluate.
	var g11, g19 int
	for i, inst := range nl.Instances {
		switch inst.Name {
		case "G11":
			g11 = i
		case "G19":
			g19 = i
		}
	}
	if err := g.SetBackend(nil, map[string]*csm.Model{"NOR2": all["NOR2"]}, []int{g11, g19}); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.StagesEvaluated < 2 || stats.StagesEvaluated == n {
		t.Errorf("switch re-evaluated %d of %d stages", stats.StagesEvaluated, n)
	}
	requireMatchesCold(t, "after set_backend", g, 2)

	// Switching to the evaluator already in place changes no output: the
	// listed stages re-evaluate and converge.
	if err := g.SetBackend(nil, nil, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	stats, err = g.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.StagesEvaluated != 2 || stats.StagesConverged != 2 || len(stats.ChangedNets) != 0 {
		t.Errorf("identity switch: %+v", stats)
	}
}
