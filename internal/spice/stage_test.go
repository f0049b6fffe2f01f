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
func stageModel(t testing.TB, cell string, kind csm.Kind) *csm.Model {
	t.Helper()
	return stageModelAt(t, cell, kind, csm.CoarseConfig())
}

// stageModelAt characterizes a catalogue cell at cfg.
func stageModelAt(t testing.TB, cell string, kind csm.Kind, cfg csm.Config) *csm.Model {
	t.Helper()
	spec, err := cells.Get(cell)
	if err != nil {
		t.Fatal(err)
	}
	m, err := csm.Characterize(cells.Default130(), spec, kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stageCircuit wires a CSM stage: ideal sources driving m's inputs, the
// cell, and load on its output.
func stageCircuit(t testing.TB, m *csm.Model, inputs []wave.Waveform, load csm.Load) (*spice.Circuit, spice.Node) {
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

// captureStage runs a stage of m from 0 to 3 ns at step dt with a
// capture element appended, and returns every system the Newton loop
// assembled.
func captureStage(t testing.TB, m *csm.Model, inputs []wave.Waveform, load csm.Load, dt float64) []*spice.System {
	t.Helper()
	c, _ := stageCircuit(t, m, inputs, load)
	rec := &capture{}
	c.Add(rec)
	if _, err := spice.NewEngine(c, spice.DefaultOptions()).Run(0, 3e-9, dt); err != nil {
		t.Fatal(err)
	}
	return rec.systems
}

// TestSolveKernelsOnStageSystems captures every system the Newton loop
// assembles while solving c17-like stages and checks SolveWith's kernels
// on each against the generic loops, bit for bit in the solution, the
// error text and every factor (solveOracle).
//
// The two-input MCSM stages (NAND2 and NOR2, both inputs switching 30 ps
// apart, at FastConfig and CoarseConfig, at 1 ps and 4 ps, loaded by a
// capacitor or by two receiver pins) are its coverage gate for the
// pattern kernel: every captured 6-unknown system must lie on
// StagePattern6, so a stamp change fails here instead of silently
// falling back to the dense kernel, and the pattern kernel must take at
// least 90% of them. An INV SIS stage covers the 3-unknown kernel.
func TestSolveKernelsOnStageSystems(t *testing.T) {
	tech := cells.Default130()
	rise := wave.SaturatedRamp(0, tech.Vdd, 1e-9, 80e-12, 3e-9)
	fall := wave.SaturatedRamp(tech.Vdd, 0, 1.03e-9, 80e-12, 3e-9)
	ws := spice.NewSolveWorkspace(6)
	took, total := 0, 0
	for _, cell := range []struct {
		name   string
		inputs []wave.Waveform
	}{
		{"NAND2", []wave.Waveform{rise, fall}},
		{"NOR2", []wave.Waveform{fall, rise}},
	} {
		for _, cfg := range []struct {
			name string
			cfg  csm.Config
		}{{"fast", csm.FastConfig()}, {"coarse", csm.CoarseConfig()}} {
			m := stageModelAt(t, cell.name, csm.KindMCSM, cfg.cfg)
			for _, dt := range []float64{1e-12, 4e-12} {
				for _, load := range []struct {
					name string
					load csm.Load
				}{
					{"cap", csm.CapLoad(3e-15)},
					{"receiver", csm.ReceiverLoad{Model: m, InputIndex: 0, Count: 2}},
				} {
					what := fmt.Sprintf("%s %s, %gps, %s load", cell.name, cfg.name, dt*1e12, load.name)
					systems := captureStage(t, m, cell.inputs, load.load, dt)
					if len(systems) < 700 {
						t.Fatalf("%s: captured only %d systems", what, len(systems))
					}
					n := 0
					for k, sys := range systems {
						if sys.N != 6 {
							t.Fatalf("%s: system %d has %d unknowns, want 6", what, k, sys.N)
						}
						for i, row := range spice.StagePattern6 {
							for j := range row {
								if v := sys.A[i*6+j]; row[j] != 'X' && math.Float64bits(v) != 0 {
									t.Fatalf("%s: system %d has A[%d][%d] = %v, off the pattern", what, k, i, j, v)
								}
							}
						}
						if spice.SolveStage6(sys, ws) {
							n++
						}
						spice.SolveOracle(t, fmt.Sprintf("%s, system %d", what, k), sys)
					}
					t.Logf("%s: the pattern kernel took %d of %d systems", what, n, len(systems))
					took += n
					total += len(systems)
				}
			}
		}
	}
	if took*10 < total*9 {
		t.Errorf("the pattern kernel took %d of %d captured stage systems, want at least 90%%", took, total)
	}
	t.Logf("the pattern kernel took %d of %d captured stage systems (%.1f%%)", took, total, 100*float64(took)/float64(total))

	m := stageModel(t, "INV", csm.KindSIS)
	systems := captureStage(t, m, []wave.Waveform{fall}, csm.MultiLoad{csm.CapLoad(1e-15), csm.ReceiverLoad{Model: m, InputIndex: 0, Count: 1}}, 1e-12)
	if len(systems) < 3000 {
		t.Fatalf("INV: captured only %d systems", len(systems))
	}
	for k, sys := range systems {
		if sys.N != 3 {
			t.Fatalf("INV system %d has %d unknowns, want 3", k, sys.N)
		}
		spice.SolveOracle(t, fmt.Sprintf("INV system %d", k), sys)
	}
}

// BenchmarkSolveKernelStage6 times SolveWith on a system captured from a
// NAND2 MCSM stage mid-transition, which the pattern kernel takes.
// BenchmarkSolveKernel6's random dense system falls back to the dense
// kernel. CI asserts both report 0 allocs/op.
func BenchmarkSolveKernelStage6(b *testing.B) {
	tech := cells.Default130()
	m := stageModel(b, "NAND2", csm.KindMCSM)
	systems := captureStage(b, m, []wave.Waveform{
		wave.SaturatedRamp(0, tech.Vdd, 1e-9, 80e-12, 3e-9),
		wave.SaturatedRamp(tech.Vdd, 0, 1.03e-9, 80e-12, 3e-9),
	}, csm.CapLoad(3e-15), 4e-12)
	ws := spice.NewSolveWorkspace(6)
	sys := systems[len(systems)/3]
	if !spice.SolveStage6(sys, ws) {
		b.Fatal("the pattern kernel declined the benchmark's stage system")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SolveWith(ws); err != nil {
			b.Fatal(err)
		}
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
