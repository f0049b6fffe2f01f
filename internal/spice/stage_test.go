package spice_test

import (
	"fmt"
	"math"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// capture is an element appended after every other one, so its Stamp
// sees each Newton assembly complete and copies it.
type capture struct{ systems []*spice.System }

func (c *capture) Name() string { return "capture" }
func (c *capture) Stamp(sys *spice.System, _ *spice.Context) {
	cp := spice.NewSystem(sys.N)
	copy(cp.A, sys.A)
	copy(cp.B, sys.B)
	c.systems = append(c.systems, cp)
}

// stageModel characterizes a catalogue cell at csm.CoarseConfig.
func stageModel(t *testing.T, cell string, kind csm.Kind) *csm.Model {
	t.Helper()
	spec, err := cells.Get(cell)
	if err != nil {
		t.Fatal(err)
	}
	m, err := csm.Characterize(cells.Default130(), spec, kind, csm.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stageCircuit wires a CSM stage: ideal sources driving m's inputs, the
// cell, and load on its output.
func stageCircuit(t *testing.T, m *csm.Model, inputs []wave.Waveform, load csm.Load) (*spice.Circuit, spice.Node) {
	t.Helper()
	c := spice.NewCircuit()
	var in []spice.Node
	for i, w := range inputs {
		in = append(in, c.Node(m.Inputs[i]))
		c.AddVSource("V"+m.Inputs[i], in[i], spice.Ground, w)
	}
	out := c.Node("out")
	cell, err := csm.NewCell("X", m, in, out, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(cell)
	load.Attach(c, out)
	return c, out
}

// TestSolveKernelsOnStageSystems captures every system the Newton loop
// assembles while solving c17-like stages — a NAND2 MCSM stage with both
// inputs switching 30 ps apart (6 unknowns) and an INV SIS stage (3
// unknowns), each loaded by a receiver pin and a wire — and checks that
// SolveWith's kernel returns the generic loops' solution or error on
// every one of them, bit for bit.
func TestSolveKernelsOnStageSystems(t *testing.T) {
	tech := cells.Default130()
	rise := wave.SaturatedRamp(0, tech.Vdd, 1e-9, 80e-12, 3e-9)
	fall := wave.SaturatedRamp(tech.Vdd, 0, 1.03e-9, 80e-12, 3e-9)
	for _, tc := range []struct {
		cell   string
		kind   csm.Kind
		inputs []wave.Waveform
		n      int
	}{
		{"NAND2", csm.KindMCSM, []wave.Waveform{rise, fall}, 6},
		{"INV", csm.KindSIS, []wave.Waveform{fall}, 3},
	} {
		m := stageModel(t, tc.cell, tc.kind)
		c, _ := stageCircuit(t, m, tc.inputs, csm.MultiLoad{csm.CapLoad(1e-15), csm.ReceiverLoad{Model: m, InputIndex: 0, Count: 1}})
		rec := &capture{}
		c.Add(rec)
		eng := spice.NewEngine(c, spice.DefaultOptions())
		if eng.Unknowns() != tc.n {
			t.Fatalf("%s stage has %d unknowns, want %d", tc.cell, eng.Unknowns(), tc.n)
		}
		if _, err := eng.Run(0, 3e-9, 1e-12); err != nil {
			t.Fatal(err)
		}
		if len(rec.systems) < 3000 {
			t.Fatalf("%s: captured only %d systems", tc.cell, len(rec.systems))
		}
		wsK, wsG := spice.NewSolveWorkspace(tc.n), spice.NewSolveWorkspace(tc.n)
		for k, sys := range rec.systems {
			xk, errK := sys.SolveWith(wsK)
			xg, errG := spice.SolveGeneric(sys, wsG)
			if (errK == nil) != (errG == nil) || (errK != nil && errK.Error() != errG.Error()) {
				t.Fatalf("%s system %d: kernel error %v, generic %v", tc.cell, k, errK, errG)
			}
			for i := range xg {
				if math.Float64bits(xk[i]) != math.Float64bits(xg[i]) {
					t.Fatalf("%s system %d: x[%d] kernel %v, generic %v", tc.cell, k, i, xk[i], xg[i])
				}
			}
		}
		t.Logf("%s: %d captured %d-unknown systems identical", tc.cell, len(rec.systems), tc.n)
	}
}

// TestAdaptiveLoopOracleStages: an adaptive CSM stage run on the one
// transient loop records what the adaptive loop recorded before the loops
// merged, every unknown bit for bit, for every model kind (SIS, the MIS
// baseline, MCSM) under capacitive, receiver and RC loads. The csm
// package checks its memoized stage solves against a fresh engine's run
// (TestStageDCMemoOracle).
func TestAdaptiveLoopOracleStages(t *testing.T) {
	tech := cells.Default130()
	rise := wave.SaturatedRamp(0, tech.Vdd, 1e-9, 80e-12, 3e-9)
	fall := wave.SaturatedRamp(tech.Vdd, 0, 1.03e-9, 80e-12, 3e-9)
	points := 0
	for _, mc := range []struct {
		cell   string
		kind   csm.Kind
		inputs []wave.Waveform
	}{
		{"INV", csm.KindSIS, []wave.Waveform{fall}},
		{"NOR2", csm.KindMISBaseline, []wave.Waveform{fall, rise}},
		{"NOR2", csm.KindMCSM, []wave.Waveform{fall, rise}},
		{"NAND2", csm.KindMCSM, []wave.Waveform{rise, fall}},
	} {
		m := stageModel(t, mc.cell, mc.kind)
		loads := map[string]csm.Load{
			"cap":      csm.CapLoad(3e-15),
			"receiver": csm.ReceiverLoad{Model: m, InputIndex: 0, Count: 2},
			"rc":       csm.RCLoad{R: 200, C: 3e-15},
		}
		for name, load := range loads {
			what := fmt.Sprintf("%s/%v, %s load", mc.cell, mc.kind, name)
			run := func(oracle bool) (*spice.Result, error) {
				c, _ := stageCircuit(t, m, mc.inputs, load)
				eng := spice.NewEngine(c, spice.DefaultOptions())
				x0, err := eng.DCAt(0)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if oracle {
					return eng.RunAdaptiveOracle(x0, 0, 3e-9, spice.DefaultAdaptive())
				}
				g, err := spice.NewAdaptive(0, 3e-9, spice.DefaultAdaptive())
				if err != nil {
					t.Fatal(err)
				}
				return eng.RunFrom(x0, g, nil)
			}
			got, errG := run(false)
			want, errO := run(true)
			if (errG == nil) != (errO == nil) {
				t.Fatalf("%s: one loop error %v, oracle error %v", what, errG, errO)
			}
			if err := spice.SameRecord(got, want); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			points += want.Steps()
		}
	}
	t.Logf("%d recorded points identical", points)
}
