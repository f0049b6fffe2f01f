package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCapacitancesRegions(t *testing.T) {
	m := nmos1u()
	cox := m.CoxTotal()
	ovl := m.P.CGDO * m.W

	// Cutoff: intrinsic gate cap appears gate-bulk; gs/gd reduce to overlap.
	off := m.CapacitancesCached(nil, nil, 0, 1.2, 0)
	if off.CGB < 0.8*cox {
		t.Errorf("cutoff CGB = %g, want ≈ %g", off.CGB, cox)
	}
	if off.CGD > ovl*1.3 {
		t.Errorf("cutoff CGD = %g, want ≈ overlap %g", off.CGD, ovl)
	}

	// Saturation: CGS ≈ 2/3·Cox + overlap, CGD ≈ overlap.
	sat := m.CapacitancesCached(nil, nil, 1.2, 1.2, 0)
	if math.Abs(sat.CGS-(2.0/3.0*cox+ovl)) > 0.15*cox {
		t.Errorf("saturation CGS = %g, want ≈ %g", sat.CGS, 2.0/3.0*cox+ovl)
	}
	if sat.CGD > ovl+0.15*cox {
		t.Errorf("saturation CGD = %g, want ≈ overlap", sat.CGD)
	}

	// Triode: both sides ≈ Cox/2 + overlap.
	tri := m.CapacitancesCached(nil, nil, 1.2, 0, 0)
	if math.Abs(tri.CGS-(0.5*cox+ovl)) > 0.15*cox {
		t.Errorf("triode CGS = %g, want ≈ %g", tri.CGS, 0.5*cox+ovl)
	}
	if math.Abs(tri.CGD-(0.5*cox+ovl)) > 0.15*cox {
		t.Errorf("triode CGD = %g, want ≈ %g", tri.CGD, 0.5*cox+ovl)
	}
}

func TestCapacitancesSwapSymmetry(t *testing.T) {
	m := nmos1u()
	// At vds<0 the roles of source and drain exchange: CGS/CGD and CDB/CSB
	// must swap relative to the mirrored positive-vds evaluation.
	a := m.CapacitancesCached(nil, nil, 0.9, 0.6, 0)
	b := m.CapacitancesCached(nil, nil, 0.9-0.6, -0.6, -0.6)
	if math.Abs(a.CGS-b.CGD) > 1e-18 || math.Abs(a.CGD-b.CGS) > 1e-18 {
		t.Errorf("gate cap swap asymmetry: %+v vs %+v", a, b)
	}
	if math.Abs(a.CDB-b.CSB) > 1e-18 || math.Abs(a.CSB-b.CDB) > 1e-18 {
		t.Errorf("junction cap swap asymmetry: %+v vs %+v", a, b)
	}
}

func TestJunctionCapBias(t *testing.T) {
	m := nmos1u()
	// Reverse bias shrinks the junction capacitance.
	c0 := m.junctionCap(0)
	c1 := m.junctionCap(1.2)
	if c1 >= c0 {
		t.Errorf("junction cap did not shrink under reverse bias: %g vs %g", c1, c0)
	}
	// Forward bias grows it, and the clamp keeps it finite and positive.
	cf := m.junctionCap(-0.79)
	if cf <= c0 || math.IsInf(cf, 0) || math.IsNaN(cf) {
		t.Errorf("forward-bias junction cap = %g (c0=%g)", cf, c0)
	}
	// Continuity at the clamp point.
	lo := m.junctionCap(-0.5*m.P.PB - 1e-9)
	hi := m.junctionCap(-0.5*m.P.PB + 1e-9)
	if math.Abs(lo-hi) > 1e-6*c0 {
		t.Errorf("junction cap discontinuous at clamp: %g vs %g", lo, hi)
	}
	// Zero CJ yields zero.
	p := N130()
	p.CJ = 0
	z := MOS{P: &p, W: 1e-6}
	if z.junctionCap(0.3) != 0 {
		t.Error("zero CJ produced nonzero junction cap")
	}
}

// Property: every capacitance is non-negative and bounded by the physical
// maximum (total oxide cap + overlaps + clamped junction) for any voltage in
// a generous range, for both polarities.
func TestQuickCapBounds(t *testing.T) {
	n := nmos1u()
	p := pmos1u()
	f := func(rawVgs, rawVds, rawVbs float64, usePmos bool) bool {
		vgs := math.Mod(rawVgs, 2)
		vds := math.Mod(rawVds, 2)
		vbs := math.Mod(rawVbs, 1)
		if math.IsNaN(vgs) || math.IsNaN(vds) || math.IsNaN(vbs) {
			return true
		}
		m := n
		if usePmos {
			m = p
		}
		c := m.CapacitancesCached(nil, nil, vgs, vds, vbs)
		cox := m.CoxTotal()
		maxGate := cox + (m.P.CGDO+m.P.CGSO)*m.W
		maxJ := m.junctionCap(-0.5*m.P.PB) * 4 // clamp region upper bound with slack
		for _, v := range []float64{c.CGS, c.CGD, c.CGB, c.CDB, c.CSB} {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		if c.CGS > maxGate || c.CGD > maxGate || c.CGB > cox*1.001 {
			return false
		}
		return c.CDB <= maxJ && c.CSB <= maxJ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCoxTotal(t *testing.T) {
	m := nmos1u()
	want := m.P.CoxA * 1e-6 * m.P.L
	if math.Abs(m.CoxTotal()-want) > 1e-21 {
		t.Errorf("CoxTotal = %g, want %g", m.CoxTotal(), want)
	}
	// ~1.5 fF/µm gate cap sanity for the 130nm card.
	perUm := m.CoxTotal() / 1e-6 * 1e-6
	if perUm < 0.8e-15 || perUm > 3e-15 {
		t.Errorf("gate cap per µm = %g F, outside plausible range", perUm)
	}
}

func TestPolarityString(t *testing.T) {
	if NMOS.String() != "nmos" || PMOS.String() != "pmos" {
		t.Error("polarity strings wrong")
	}
}
