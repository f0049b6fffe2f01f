package csm

import (
	"math"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// requireSameWave fails unless a and b have bit-identical samples.
func requireSameWave(t *testing.T, what string, a, b wave.Waveform) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d samples, want %d", what, a.Len(), b.Len())
	}
	for k := range a.T {
		if math.Float64bits(a.T[k]) != math.Float64bits(b.T[k]) || math.Float64bits(a.V[k]) != math.Float64bits(b.V[k]) {
			t.Fatalf("%s: sample %d (%v, %v), want (%v, %v)", what, k, a.T[k], a.V[k], b.T[k], b.V[k])
		}
	}
}

// TestStageRecordsMatchFullRun: the stage records that keep only the
// output (SimulateStageOut, the STA path) or the output and VN
// (SimulateStage) hold exactly the samples a full record of the same
// circuit with plain waveform sources holds. The stage's sources read
// their waveforms through wave.Cursor; running one stage engine twice —
// the second run's DC solve sends time back to the start — gives the
// same record again.
func TestStageRecordsMatchFullRun(t *testing.T) {
	m := fixtureModel(t, "NOR2", KindMCSM)
	tech, tm := cells.Default130(), cells.DefaultHistoryTiming()
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 2, tm)
	inputs := []wave.Waveform{wa, wb}
	load := MultiLoad{CapLoad(2e-15), ReceiverLoad{Model: m, InputIndex: 1, Count: 2}}
	const dt = 1e-12

	// Reference: the stage wired by hand with plain waveform sources,
	// recording every unknown.
	c := spice.NewCircuit()
	in := []spice.Node{c.Node("in_A"), c.Node("in_B")}
	for i, w := range inputs {
		c.AddVSource("V"+m.Inputs[i], in[i], spice.Ground, w)
	}
	out := c.Node("out")
	cell, err := NewCell("CSM", m, in, out, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(cell)
	load.Attach(c, out)
	ref, err := spice.NewEngine(c, spice.DefaultOptions()).Run(0, tm.TEnd, dt)
	if err != nil {
		t.Fatal(err)
	}
	refOut, refVN := ref.Wave(out), ref.AuxWave(cell.VNIndex())

	sr, err := SimulateStage(m, inputs, load, 0, tm.TEnd, dt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameWave(t, "SimulateStage Out", sr.Out, refOut)
	requireSameWave(t, "SimulateStage VN", sr.VN, refVN)
	outOnly, err := SimulateStageOut(m, inputs, load, mustGrid(t, 0, tm.TEnd, dt), nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameWave(t, "SimulateStageOut", outOnly, refOut)

	sc, scell, sout, err := buildStage(m, inputs, load)
	if err != nil {
		t.Fatal(err)
	}
	eng := spice.NewEngine(sc, spice.DefaultOptions())
	for run := 1; run <= 2; run++ {
		res, err := eng.Run(0, tm.TEnd, dt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameWave(t, "cursor-source stage Out", res.Wave(sout), refOut)
		requireSameWave(t, "cursor-source stage VN", res.AuxWave(scell.VNIndex()), refVN)
	}
}

// TestReceiverCapLookup: the receiver's reused cursor gives the per-step
// capacitance a fresh Table.At lookup gives, along a slow sweep (the
// remembered bracket hits), jumps, breakpoints and clamped voltages.
func TestReceiverCapLookup(t *testing.T) {
	m := fixtureModel(t, "NOR2", KindMCSM)
	rc, err := NewReceiverCap("R", m, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := m.CPin[1].Axes[0].Points
	xp := []float64{0}
	ctx := &spice.Context{Mode: spice.ModeTransient, Xprev: xp}
	for k := 0; k < 400; k++ {
		switch {
		case k%50 == 7:
			xp[0] = pts[k%len(pts)]
		case k%50 == 13:
			xp[0] = 2 * m.Vdd
		default:
			xp[0] = -0.2 + float64(k%200)*0.0083
		}
		rc.BeginStep(ctx)
		if want := 3 * m.CPin[1].At(xp[0]); !sameBits(rc.val, want) {
			t.Fatalf("V = %v: receiver cap %v, CPin.At %v", xp[0], rc.val, want)
		}
	}
}
