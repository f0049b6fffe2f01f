package csm

import (
	"math"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// referenceHistory runs the transistor-level NOR2 history scenario with a
// lumped capacitive load (so model and reference see the same load) and
// returns the output waveform and internal node waveform.
func referenceHistory(t *testing.T, tech cells.Tech, caseNo int, cl float64, tm cells.HistoryTiming) (out, vn wave.Waveform) {
	t.Helper()
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, caseNo, tm)
	c := spice.NewCircuit()
	vddN := c.Node("vdd")
	a := c.Node("a")
	b := c.Node("b")
	outN := c.Node("out")
	c.AddVSource("VDD", vddN, spice.Ground, spice.DC(tech.Vdd))
	c.AddVSource("VA", a, spice.Ground, wa)
	c.AddVSource("VB", b, spice.Ground, wb)
	inst := cells.NOR2(c, tech, "X", []spice.Node{a, b}, outN, vddN, 1)
	c.AddCapacitor("CL", outN, spice.Ground, cl)
	eng := spice.NewEngine(c, spice.DefaultOptions())
	res, err := eng.Run(0, tm.TEnd, 1e-12)
	if err != nil {
		t.Fatalf("reference case %d: %v", caseNo, err)
	}
	return res.Wave(outN), res.Wave(inst.Internal["N"])
}

// delayFromSwitch measures the 50% rising output delay after the final
// '11'→'00' event.
func delayFromSwitch(t *testing.T, out wave.Waveform, vdd float64, tm cells.HistoryTiming) float64 {
	t.Helper()
	tIn := tm.TSwitch + tm.Slew/2
	tOut, err := wave.OutputCross50(out, vdd, true, tIn)
	if err != nil {
		t.Fatal(err)
	}
	return tOut - tIn
}

// TestMCSMTracksHistoryDelays is the repo-level Fig. 9 check: the MCSM
// reproduces both the fast ('10' history) and slow ('01' history) reference
// delays within a few percent, while the baseline MIS model — blind to the
// internal node — shows a much larger error on at least one case.
func TestMCSMTracksHistoryDelays(t *testing.T) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	mcsm := fixtureModel(t, "NOR2", KindMCSM)
	base := fixtureModel(t, "NOR2", KindMISBaseline)
	cl := cells.FanoutCap(tech, 2)

	var refD, mcsmD, baseD [3]float64
	for caseNo := 1; caseNo <= 2; caseNo++ {
		refOut, _ := referenceHistory(t, tech, caseNo, cl, tm)
		refD[caseNo] = delayFromSwitch(t, refOut, tech.Vdd, tm)

		wa, wb := cells.NOR2HistoryInputs(tech.Vdd, caseNo, tm)
		ms, err := SimulateStage(mcsm, []wave.Waveform{wa, wb}, CapLoad(cl), 0, tm.TEnd, 1e-12)
		if err != nil {
			t.Fatalf("MCSM stage case %d: %v", caseNo, err)
		}
		mcsmD[caseNo] = delayFromSwitch(t, ms.Out, tech.Vdd, tm)

		bs, err := SimulateStage(base, []wave.Waveform{wa, wb}, CapLoad(cl), 0, tm.TEnd, 1e-12)
		if err != nil {
			t.Fatalf("baseline stage case %d: %v", caseNo, err)
		}
		baseD[caseNo] = delayFromSwitch(t, bs.Out, tech.Vdd, tm)
	}

	t.Logf("delays ps — ref: %.1f/%.1f  mcsm: %.1f/%.1f  baseline: %.1f/%.1f",
		refD[1]*1e12, refD[2]*1e12, mcsmD[1]*1e12, mcsmD[2]*1e12, baseD[1]*1e12, baseD[2]*1e12)

	// Reference must show the stack effect at this light load.
	refSpread := (refD[2] - refD[1]) / refD[1]
	if refSpread < 0.03 {
		t.Fatalf("reference stack effect only %.1f%%", 100*refSpread)
	}
	// MCSM follows both cases.
	var mcsmMaxErr, baseMaxErr float64
	for caseNo := 1; caseNo <= 2; caseNo++ {
		me := math.Abs(mcsmD[caseNo]-refD[caseNo]) / refD[caseNo]
		be := math.Abs(baseD[caseNo]-refD[caseNo]) / refD[caseNo]
		if me > mcsmMaxErr {
			mcsmMaxErr = me
		}
		if be > baseMaxErr {
			baseMaxErr = be
		}
	}
	t.Logf("max delay error: MCSM %.1f%%, baseline %.1f%%", 100*mcsmMaxErr, 100*baseMaxErr)
	if mcsmMaxErr > 0.10 {
		t.Errorf("MCSM max delay error %.1f%% exceeds 10%% (FastConfig bound)", 100*mcsmMaxErr)
	}
	// The paper's headline: the internal-node-blind model errs much more.
	if baseMaxErr < mcsmMaxErr {
		t.Errorf("baseline (%.1f%%) unexpectedly beats MCSM (%.1f%%)", 100*baseMaxErr, 100*mcsmMaxErr)
	}
	// Baseline cannot separate the two histories.
	baseSpread := math.Abs(baseD[2]-baseD[1]) / baseD[1]
	if baseSpread > refSpread/2 {
		t.Errorf("baseline shows history sensitivity %.1f%% it should not have (ref %.1f%%)",
			100*baseSpread, 100*refSpread)
	}
}

// TestMCSMInternalNodeWaveform checks the model's VN against the
// transistor-level internal node (Fig. 3's content, model side).
func TestMCSMInternalNodeWaveform(t *testing.T) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	mcsm := fixtureModel(t, "NOR2", KindMCSM)
	cl := cells.FanoutCap(tech, 2)

	for caseNo := 1; caseNo <= 2; caseNo++ {
		_, refVN := referenceHistory(t, tech, caseNo, cl, tm)
		wa, wb := cells.NOR2HistoryInputs(tech.Vdd, caseNo, tm)
		ms, err := SimulateStage(mcsm, []wave.Waveform{wa, wb}, CapLoad(cl), 0, tm.TEnd, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		// Compare the floating-window level (the state that matters for the
		// '00' transition).
		tProbe := tm.TSwitch - 0.15e-9
		refLvl := refVN.At(tProbe)
		gotLvl := ms.VN.At(tProbe)
		if math.Abs(gotLvl-refLvl) > 0.2 {
			t.Errorf("case %d: VN before switch: model %.3f vs ref %.3f", caseNo, gotLvl, refLvl)
		}
	}
}

// TestExplicitMatchesImplicit cross-checks the paper's Eq. 4/5 update
// against the implicit solver on the same model (EXP-A3's base case).
func TestExplicitMatchesImplicit(t *testing.T) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	mcsm := fixtureModel(t, "NOR2", KindMCSM)
	cl := cells.FanoutCap(tech, 2)
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 2, tm)

	imp, err := SimulateStage(mcsm, []wave.Waveform{wa, wb}, CapLoad(cl), 0, tm.TEnd, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := SimulateExplicit(mcsm, []wave.Waveform{wa, wb}, cl, 0, tm.TEnd, 0.2e-12)
	if err != nil {
		t.Fatal(err)
	}
	rmse := wave.RMSE(imp.Out, exp.Out, 0, tm.TEnd, 2000) / tech.Vdd
	if rmse > 0.02 {
		t.Errorf("explicit vs implicit RMSE %.2f%% of Vdd", 100*rmse)
	}
	dImp := delayFromSwitch(t, imp.Out, tech.Vdd, tm)
	dExp := delayFromSwitch(t, exp.Out, tech.Vdd, tm)
	if math.Abs(dImp-dExp) > 2e-12 {
		t.Errorf("integrator delay mismatch: %.2fps vs %.2fps", dImp*1e12, dExp*1e12)
	}
}

func TestInitialState(t *testing.T) {
	m := fixtureModel(t, "NOR2", KindMCSM)
	// '00': output high, N high.
	vn, vo, err := InitialState(m, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vo-m.Vdd) > 0.1 || math.Abs(vn-m.Vdd) > 0.1 {
		t.Errorf("'00' state: vn=%.3f vo=%.3f, want both ≈ Vdd", vn, vo)
	}
	// '10': output low, N held high through M4.
	vn, vo, err = InitialState(m, []float64{m.Vdd, 0})
	if err != nil {
		t.Fatal(err)
	}
	if vo > 0.1 || math.Abs(vn-m.Vdd) > 0.1 {
		t.Errorf("'10' state: vn=%.3f vo=%.3f, want vn≈Vdd vo≈0", vn, vo)
	}
	// '01': output low, N at the leakage-balance level, well below Vdd.
	vn, vo, err = InitialState(m, []float64{0, m.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	if vo > 0.1 || vn > 0.6 {
		t.Errorf("'01' state: vn=%.3f vo=%.3f, want vn well below Vdd", vn, vo)
	}
}

func TestLoadKinds(t *testing.T) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	m := fixtureModel(t, "NOR2", KindMCSM)
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 1, tm)
	inputs := []wave.Waveform{wa, wb}
	inv := fixtureModel(t, "INV", KindSIS)

	loads := map[string]Load{
		"cap":      CapLoad(3e-15),
		"rc":       RCLoad{R: 200, C: 3e-15},
		"pi":       PiLoad{C1: 1e-15, R: 150, C2: 2e-15},
		"receiver": ReceiverLoad{Model: inv, InputIndex: 0, Count: 2},
		"multi":    MultiLoad{CapLoad(1e-15), RCLoad{R: 100, C: 1e-15}},
	}
	var prevDelay float64
	for name, ld := range loads {
		sr, err := SimulateStage(m, inputs, ld, 0, tm.TEnd, 1e-12)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		d := delayFromSwitch(t, sr.Out, tech.Vdd, tm)
		if d <= 0 || d > 500e-12 {
			t.Errorf("load %s: implausible delay %g", name, d)
		}
		prevDelay = d
	}
	_ = prevDelay
}

func TestSimulateStageValidation(t *testing.T) {
	m := fixtureModel(t, "NOR2", KindMCSM)
	if _, err := SimulateStage(m, nil, CapLoad(1e-15), 0, 1e-9, 1e-12); err == nil {
		t.Error("missing inputs accepted")
	}
	if _, err := SimulateExplicit(m, nil, 1e-15, 0, 1e-9, 1e-12); err == nil {
		t.Error("explicit missing inputs accepted")
	}
	w := wave.Constant(0, 0, 1e-9)
	if _, err := SimulateExplicit(m, []wave.Waveform{w, w}, 1e-15, 0, 0, 1e-12); err == nil {
		t.Error("explicit empty window accepted")
	}
}

// TestAdaptiveStageMatchesFixed cross-checks the adaptive stage integrator
// against the fixed-step path on the slow history case.
func TestAdaptiveStageMatchesFixed(t *testing.T) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	m := fixtureModel(t, "NOR2", KindMCSM)
	cl := cells.FanoutCap(tech, 2)
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 2, tm)
	inputs := []wave.Waveform{wa, wb}

	fixed, err := SimulateStage(m, inputs, CapLoad(cl), 0, tm.TEnd, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spice.NewAdaptive(0, tm.TEnd, spice.DefaultAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	ad, err := simulateStage(m, inputs, CapLoad(cl), g, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	dF := delayFromSwitch(t, fixed.Out, tech.Vdd, tm)
	dA := delayFromSwitch(t, ad.Out, tech.Vdd, tm)
	if diff := math.Abs(dF - dA); diff > 1.5e-12 {
		t.Errorf("adaptive vs fixed stage delay differ by %.2fps", diff*1e12)
	}
	if ad.Out.Len() >= fixed.Out.Len()/3 {
		t.Errorf("adaptive stage used %d steps vs fixed %d", ad.Out.Len(), fixed.Out.Len())
	}
	t.Logf("stage steps: adaptive %d vs fixed %d; delay diff %.2fps",
		ad.Out.Len(), fixed.Out.Len(), math.Abs(dF-dA)*1e12)
}
