package spice_test

import (
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
		spec, err := cells.Get(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		m, err := csm.Characterize(tech, spec, tc.kind, csm.CoarseConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := spice.NewCircuit()
		var in []spice.Node
		for i, w := range tc.inputs {
			in = append(in, c.Node(m.Inputs[i]))
			c.AddVSource("V"+m.Inputs[i], in[i], spice.Ground, w)
		}
		out := c.Node("out")
		cell, err := csm.NewCell("X", m, in, out, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Add(cell)
		csm.MultiLoad{csm.CapLoad(1e-15), csm.ReceiverLoad{Model: m, InputIndex: 0, Count: 1}}.Attach(c, out)
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
