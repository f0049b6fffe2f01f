package experiments

import (
	"fmt"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// historyRef runs the transistor-level §2.2 history scenario with a lumped
// capacitive load and returns the output and internal-node waveforms.
func historyRef(cfg Config, caseNo int, cl float64, tm cells.HistoryTiming) (out, vn wave.Waveform, err error) {
	wa, wb := cells.NOR2HistoryInputs(cfg.Tech.Vdd, caseNo, tm)
	return nor2Ref(cfg, wa, wb, cl, tm.TEnd)
}

// nor2Ref simulates a transistor-level NOR2 with the given input waveforms
// and lumped load.
func nor2Ref(cfg Config, wa, wb wave.Waveform, cl, tEnd float64) (out, vn wave.Waveform, err error) {
	c := spice.NewCircuit()
	vddN := c.Node("vdd")
	a := c.Node("a")
	b := c.Node("b")
	outN := c.Node("out")
	c.AddVSource("VDD", vddN, spice.Ground, spice.DC(cfg.Tech.Vdd))
	c.AddVSource("VA", a, spice.Ground, wa)
	c.AddVSource("VB", b, spice.Ground, wb)
	inst := cells.NOR2(c, cfg.Tech, "X", []spice.Node{a, b}, outN, vddN, 1)
	c.AddCapacitor("CL", outN, spice.Ground, cl)
	eng := spice.NewEngine(c, spice.DefaultOptions())
	res, err := eng.Run(0, tEnd, cfg.Dt)
	if err != nil {
		return wave.Waveform{}, wave.Waveform{}, fmt.Errorf("experiments: reference: %w", err)
	}
	return res.Wave(outN), res.Wave(inst.Internal["N"]), nil
}

// historyRefFanout runs the history scenario with real fanout inverters —
// the exact Fig. 5 configuration.
func historyRefFanout(cfg Config, caseNo, fanout int, tm cells.HistoryTiming) (out wave.Waveform, err error) {
	eng, _, inst := cells.NOR2HistoryScenario(cfg.Tech, caseNo, fanout, tm)
	res, err := eng.Run(0, tm.TEnd, cfg.Dt)
	if err != nil {
		return wave.Waveform{}, fmt.Errorf("experiments: FO%d case %d: %w", fanout, caseNo, err)
	}
	return res.Wave(inst.Pins["Out"]), nil
}

// historyRefAdaptive runs the history scenario with adaptive time stepping
// (used by the EXP-T1 runtime comparison).
func historyRefAdaptive(cfg Config, caseNo int, cl float64, tm cells.HistoryTiming) error {
	wa, wb := cells.NOR2HistoryInputs(cfg.Tech.Vdd, caseNo, tm)
	c := spice.NewCircuit()
	vddN := c.Node("vdd")
	a := c.Node("a")
	b := c.Node("b")
	outN := c.Node("out")
	c.AddVSource("VDD", vddN, spice.Ground, spice.DC(cfg.Tech.Vdd))
	c.AddVSource("VA", a, spice.Ground, wa)
	c.AddVSource("VB", b, spice.Ground, wb)
	cells.NOR2(c, cfg.Tech, "X", []spice.Node{a, b}, outN, vddN, 1)
	c.AddCapacitor("CL", outN, spice.Ground, cl)
	g, err := spice.NewAdaptive(0, tm.TEnd, spice.DefaultAdaptive())
	if err != nil {
		return err
	}
	eng := spice.NewEngine(c, spice.DefaultOptions())
	x0, err := eng.DCAt(0)
	if err != nil {
		return err
	}
	_, err = eng.RunFrom(x0, g, nil)
	return err
}

// switchDelay measures the 50% rising output delay after the '11'→'00'
// event of the history timing.
func switchDelay(out wave.Waveform, vdd float64, tm cells.HistoryTiming) (float64, error) {
	tIn := tm.TSwitch + tm.Slew/2
	tOut, err := wave.OutputCross50(out, vdd, true, tIn)
	if err != nil {
		return 0, err
	}
	return tOut - tIn, nil
}

// historyModel runs the CSM stage simulation of a history case.
func historyModel(cfg Config, m *csm.Model, caseNo int, cl float64, tm cells.HistoryTiming) (*csm.StageResult, error) {
	wa, wb := cells.NOR2HistoryInputs(cfg.Tech.Vdd, caseNo, tm)
	return csm.SimulateStage(m, []wave.Waveform{wa, wb}, csm.CapLoad(cl), 0, tm.TEnd, cfg.Dt)
}

// glitchInputs builds the Fig. 10 stimulus: input A low; input B receives a
// narrow low-going pulse, so the output pulses partially high through the
// (slow) PMOS stack and collapses back — a classic propagated glitch.
func glitchInputs(vdd float64) (wa, wb wave.Waveform, tEnd float64) {
	tEnd = 3.2e-9
	wa = wave.Constant(0, 0, tEnd)
	wb = wave.MustNew(
		[]float64{0, 1.5e-9, 1.55e-9, 1.585e-9, 1.64e-9, tEnd},
		[]float64{vdd, vdd, 0, 0, vdd, vdd})
	return wa, wb, tEnd
}

// misInputs builds the Fig. 11 stimulus: both inputs fall simultaneously
// from '11', the canonical MIS event (a zero-skew point of the sweep
// subsystem's skew axis).
func misInputs(vdd float64) (wa, wb wave.Waveform, tEnd float64) {
	tEnd = 3.2e-9
	wa, wb = cells.SkewedPairInputs(vdd, false, 2.0e-9, 0, 80e-12, tEnd)
	return wa, wb, tEnd
}
