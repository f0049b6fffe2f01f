package csm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/table"
	"mcsm/internal/wave"
)

// synthModel builds a two-input MCSM with seeded random samples. splitIN
// puts IN on a grid of its own and splitCN does the same for CN, so the
// cell's grid grouping must fall back to extra cursors; miller adds the
// internal-Miller tables. Co gets a deep copy of the shared cap axes, so
// grouping has to go by breakpoint values, not slice identity.
func synthModel(rng *rand.Rand, splitIN, splitCN, miller bool) *Model {
	grid := func(lo float64, n int) []table.Axis {
		var axes []table.Axis
		for _, name := range []string{"A", "B", "N", "Out"} {
			axes = append(axes, table.Uniform(name, lo, 1.3, n))
		}
		return axes
	}
	fill := func(axes []table.Axis) *table.Table {
		t := table.MustNew(axes...)
		for k := range t.Data {
			t.Data[k] = rng.NormFloat64()
		}
		return t
	}
	cur, alt, capAx, capAlt := grid(-0.1, 6), grid(-0.15, 5), grid(-0.1, 4), grid(-0.05, 3)
	capCopy := make([]table.Axis, len(capAx))
	for i, a := range capAx {
		capCopy[i] = table.Axis{Name: a.Name, Points: append([]float64(nil), a.Points...)}
	}
	pin := func() *table.Table { return fill([]table.Axis{table.Uniform("V", -0.1, 1.3, 4)}) }
	m := &Model{
		Kind: KindMCSM, Cell: "SYN", Vdd: 1.2, Inputs: []string{"A", "B"}, Internal: "N", DeltaV: 0.1,
		Io:   fill(cur),
		IN:   fill(cur),
		Cm:   []*table.Table{fill(capAx), fill(capAx)},
		Co:   fill(capCopy),
		CN:   fill(capAx),
		CIn:  []*table.Table{pin(), pin()},
		CPin: []*table.Table{pin(), pin()},
	}
	if splitIN {
		m.IN = fill(alt)
	}
	if splitCN {
		m.CN = fill(capAlt)
	}
	if miller {
		m.CmN = []*table.Table{fill(capAx), fill(capAx)}
		m.CmNO = fill(capAx)
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// tableGrad is one ValueGrad lookup of t through a fresh cursor.
func tableGrad(t *table.Table, coords []float64) (float64, []float64) {
	var cur table.Cursor
	t.Seek(&cur, coords)
	grad := make([]float64, len(coords))
	return t.ValueGrad(&cur, grad), grad
}

// oracleStampDC is the DC part of Cell.Stamp (the current sources; every
// capacitive branch is open in DC) rebuilt from one lookup per table.
func oracleStampDC(sys *spice.System, c *Cell, coords []float64) {
	m := c.model
	outIdx := int(c.out) - 1
	io, gradIo := tableGrad(m.Io, coords)
	lin := 0.0
	for k, g := range gradIo {
		sys.AddA(outIdx, c.unknownOf(k), -g)
		lin += -g * coords[k]
	}
	sys.AddB(outIdx, lin-(-io))
	row := c.vnAux
	iN, gradIN := tableGrad(m.IN, coords)
	linN := 0.0
	for k, g := range gradIN {
		sys.AddA(row, c.unknownOf(k), -g)
		linN += -g * coords[k]
	}
	sys.AddB(row, linN-(-iN))
	sys.AddA(row, row, 1e-12)
}

// TestCellLookupsMatchPerTable: the grouped cursors of Cell.BeginStep and
// Cell.Stamp reproduce one lookup per table through a fresh cursor bit for bit — on a
// characterized model (one grid per group), on a model whose IN and CN
// sit on grids of their own (the grouping fallback), and on a
// NoInternalMiller model.
func TestCellLookupsMatchPerTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name           string
		m              *Model
		currents, caps int // distinct grids per group
	}{
		{"characterized NOR2", fixtureModel(t, "NOR2", KindMCSM), 1, 1},
		{"split IN and CN grids", synthModel(rng, true, true, true), 2, 2},
		{"no internal Miller", synthModel(rng, false, false, false), 1, 1},
	}
	for _, tc := range cases {
		m := tc.m
		cell, err := NewCell("X", m, []spice.Node{1, 2}, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		cell.SetAuxBase(3)
		if got := len(cell.currents.grids); got != tc.currents {
			t.Errorf("%s: current tables on %d cursors, want %d", tc.name, got, tc.currents)
		}
		if got := len(cell.caps.grids); got != tc.caps {
			t.Errorf("%s: cap tables on %d cursors, want %d", tc.name, got, tc.caps)
		}
		pts := m.Io.Axes[0].Points
		draw := func() float64 {
			if rng.Intn(4) == 0 {
				return pts[rng.Intn(len(pts))] // exact breakpoint
			}
			return -0.4 + 2*rng.Float64() // interior or clamped
		}
		for q := 0; q < 50; q++ {
			x, xp := make([]float64, 4), make([]float64, 4)
			for i := range x {
				x[i], xp[i] = draw(), draw()
			}
			ctx := &spice.Context{Mode: spice.ModeDC, SrcScale: 1, X: x, Xprev: xp}
			cell.BeginStep(ctx)
			prev := []float64{xp[0], xp[1], xp[3], xp[2]} // A, B, N, Out
			check := func(what string, got float64, tb *table.Table) {
				if want := tb.At(prev...); !sameBits(got, want) {
					t.Fatalf("%s: BeginStep %s = %v, per-table At %v", tc.name, what, got, want)
				}
			}
			for i := range m.Cm {
				check("Cm", cell.cmVal[i], m.Cm[i])
			}
			check("Co", cell.coVal, m.Co)
			check("CN", cell.cnVal, m.CN)
			if m.HasInternalMiller() {
				for i := range m.CmN {
					check("CmN", cell.cmNVal[i], m.CmN[i])
				}
				check("CmNO", cell.cmNOVal, m.CmNO)
			}

			got, want := spice.NewSystem(4), spice.NewSystem(4)
			cell.Stamp(got, ctx)
			oracleStampDC(want, cell, []float64{x[0], x[1], x[3], x[2]})
			for i := range want.A {
				if !sameBits(got.A[i], want.A[i]) {
					t.Fatalf("%s: Stamp A[%d] = %v, per-table oracle %v", tc.name, i, got.A[i], want.A[i])
				}
			}
			for i := range want.B {
				if !sameBits(got.B[i], want.B[i]) {
					t.Fatalf("%s: Stamp B[%d] = %v, per-table oracle %v", tc.name, i, got.B[i], want.B[i])
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// nanLoad is a capacitive load whose net is overwritten with NaN once the
// transient passes time at — a stand-in for any upstream fault that hands
// the cell a non-finite coordinate.
type nanLoad struct {
	c, at float64
}

func (l nanLoad) Attach(c *spice.Circuit, out spice.Node) {
	c.AddCapacitor("CL", out, spice.Ground, l.c)
	c.Add(&nanInjector{node: out, at: l.at})
}

// nanInjector overwrites its node's accepted voltage with NaN at every
// step ending at or after time at.
type nanInjector struct {
	node spice.Node
	at   float64
}

func (p *nanInjector) Name() string                        { return "NaN" }
func (p *nanInjector) Stamp(*spice.System, *spice.Context) {}
func (p *nanInjector) BeginStep(*spice.Context)            {}
func (p *nanInjector) AcceptStep(ctx *spice.Context) {
	if ctx.Time >= p.at {
		ctx.X[int(p.node)-1] = math.NaN()
	}
}

// TestSimulateStageNaNCoordinate: a NaN reaching the cell's table
// coordinates makes the stage fail with the solver's ErrSingular instead
// of panicking inside the table lookup.
func TestSimulateStageNaNCoordinate(t *testing.T) {
	m := fixtureModel(t, "NOR2", KindMCSM)
	tech, tm := cells.Default130(), cells.DefaultHistoryTiming()
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 1, tm)
	_, err := SimulateStage(m, []wave.Waveform{wa, wb}, nanLoad{c: 2e-15, at: 1e-9}, 0, tm.TEnd, 1e-12)
	if !errors.Is(err, spice.ErrSingular) {
		t.Fatalf("SimulateStage with a NaN output voltage: err = %v, want ErrSingular", err)
	}
}

// TestSimulateStageAllocsIndependentOfHorizon: a stage solve allocates a
// fixed number of times however many steps it takes — doubling the
// horizon doubles the steps, never the allocation count. The solves run
// on the model's pooled stage benches, so each count is a warm solve's
// (warmAllocs).
func TestSimulateStageAllocsIndependentOfHorizon(t *testing.T) {
	m := fixtureModel(t, "NOR2", KindMCSM)
	tech, tm := cells.Default130(), cells.DefaultHistoryTiming()
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 2, tm)
	inputs := []wave.Waveform{wa, wb}
	allocs := func(stop float64) float64 {
		return warmAllocs(func() {
			if _, err := SimulateStage(m, inputs, CapLoad(2e-15), 0, stop, 1e-12); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(tm.TEnd), allocs(2*tm.TEnd)
	if short != long {
		t.Errorf("SimulateStage allocations: %v at %g s, %v at %g s; want equal", short, tm.TEnd, long, 2*tm.TEnd)
	}
}

// BenchmarkCellStampMCSM times one step start plus one Newton assembly
// of an MCSM cell: the capacitance lookups of BeginStep and the
// current-source lookups with gradients of Stamp. CI asserts it reports
// 0 allocs/op.
func BenchmarkCellStampMCSM(b *testing.B) {
	m := fixtureModel(b, "NOR2", KindMCSM)
	cell, err := NewCell("X", m, []spice.Node{1, 2}, 3, false)
	if err != nil {
		b.Fatal(err)
	}
	cell.SetAuxBase(3)
	sys := spice.NewSystem(4)
	ctx := &spice.Context{
		Mode: spice.ModeTransient, Method: spice.Trapezoidal, Dt: 1e-12, SrcScale: 1,
		X:     []float64{0.6, 0.2, 0.5, 0.7},
		Xprev: []float64{0.55, 0.2, 0.52, 0.68},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.BeginStep(ctx)
		sys.Clear()
		cell.Stamp(sys, ctx)
	}
}
