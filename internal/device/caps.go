package device

import "math"

// Caps holds the small-signal terminal capacitances of a MOSFET at an
// operating point, in farads, all non-negative:
//
//	CGS, CGD — gate-source / gate-drain (intrinsic Meyer + overlap)
//	CGB      — gate-bulk (cutoff)
//	CDB, CSB — drain/source junction capacitances to bulk
type Caps struct {
	CGS float64
	CGD float64
	CGB float64
	CDB float64
	CSB float64
}

// JunctionCache memoizes the drain and source depletion-capacitance
// evaluations of one device instance, each keyed by the exact reverse-bias
// bits of its last call. Like ThresholdCache it must be private to one
// device and one goroutine; a hit replays the bits the recomputation would
// produce.
type JunctionCache struct {
	d, s jcEntry
}

type jcEntry struct {
	valid bool
	vr    float64
	c     float64
}

// CapacitancesCached evaluates the charge model at the given terminal
// voltages (relative to the source). The intrinsic Meyer partition is
// blended smoothly between cutoff, triode, and saturation with logistic
// weights so the per-step capacitance linearization in the transient
// solver never sees discontinuities. Both memos are optional (nil is
// valid for either). vtc caches the body-effect threshold chain — the expression is
// identical to the DC model's, so one cache can be shared with EvalCached.
// jc caches the two junction evaluations, whose reverse-bias arguments are
// constant for any device whose source or drain is tied to a rail.
func (m MOS) CapacitancesCached(vtc *ThresholdCache, jc *JunctionCache, vgs, vds, vbs float64) Caps {
	p := m.P
	// n-equivalent space.
	if p.Polarity == PMOS {
		vgs, vds, vbs = -vgs, -vds, -vbs
	}
	swapped := false
	if vds < 0 {
		// Source/drain exchange for the intrinsic partition.
		vgs, vds, vbs = vgs-vds, -vds, vbs-vds
		swapped = true
	}

	// Threshold with body effect (same expression as the DC model).
	var vt float64
	if vtc != nil && vtc.valid && vtc.vbs == vbs {
		vt = vtc.vt
	} else {
		se := p.Phi - vbs
		seff, dseff := softplus(se, 0.05)
		if seff < 1e-9 {
			seff = 1e-9
		}
		sq := math.Sqrt(seff)
		vt = p.VT0 + p.Gamma*(sq-math.Sqrt(p.Phi))
		if vtc != nil {
			*vtc = ThresholdCache{valid: true, vbs: vbs, vt: vt, dvt: -p.Gamma / (2 * sq) * dseff}
		}
	}
	nvt := p.NSub * vThermal
	vov := vgs - vt
	veff, _ := softplus(vov, nvt)
	vdsat := p.KV * math.Pow(math.Max(veff, 1e-12), p.Alpha/2)
	if vdsat < 1e-6 {
		vdsat = 1e-6
	}

	cox := m.CoxTotal()
	// Region blending weights.
	fon := logistic(vov / (2 * nvt))       // 0 in cutoff → 1 on
	fsat := logistic((vds - vdsat) / 0.05) // 0 in triode → 1 in saturation
	// Meyer partition: triode (1/2, 1/2); saturation (2/3, 0); cutoff (0, 0)
	// with CGB = Cox in cutoff.
	cgsI := fon * (fsat*(2.0/3.0) + (1-fsat)*0.5) * cox
	cgdI := fon * (1 - fsat) * 0.5 * cox
	cgbI := (1 - fon) * cox

	if swapped {
		cgsI, cgdI = cgdI, cgsI
	}

	c := Caps{
		CGS: cgsI + p.CGSO*m.W,
		CGD: cgdI + p.CGDO*m.W,
		CGB: cgbI,
	}
	// Junction capacitances from the *real* terminal voltages (recompute
	// reverse bias in real space; polarity mapping is symmetric because both
	// vdb and the junction orientation flip together).
	var jd, js *jcEntry
	if jc != nil {
		jd, js = &jc.d, &jc.s
	}
	c.CDB = m.junctionCapCached(jd, vds-vbs) // vdb = vds − vbs in n-space
	c.CSB = m.junctionCapCached(js, -vbs)    // vsb = −vbs in n-space
	if swapped {
		c.CDB, c.CSB = c.CSB, c.CDB
	}
	return c
}

// junctionCapCached wraps junctionCap with a one-entry memo keyed by the
// exact reverse-bias bits (nil entry disables caching).
func (m MOS) junctionCapCached(e *jcEntry, vr float64) float64 {
	if e != nil && e.valid && e.vr == vr {
		return e.c
	}
	c := m.junctionCap(vr)
	if e != nil {
		*e = jcEntry{valid: true, vr: vr, c: c}
	}
	return c
}

// junctionCap returns the depletion capacitance of a drain/source junction
// at reverse bias vr (positive = reverse-biased, the normal digital-circuit
// condition). Forward bias is smooth-clamped at PB/2 in the manner of the
// SPICE FC linearization to keep the value finite.
func (m MOS) junctionCap(vr float64) float64 {
	p := m.P
	cj0 := p.CJ * m.W
	if cj0 <= 0 {
		return 0
	}
	const fc = 0.5
	limit := -fc * p.PB
	if vr > limit {
		return cj0 / math.Pow(1+vr/p.PB, p.MJ)
	}
	// Linear extrapolation below the clamp (forward bias beyond FC·PB).
	c0 := cj0 / math.Pow(1-fc, p.MJ)
	slope := c0 * p.MJ / (p.PB * (1 - fc))
	return c0 + slope*(limit-vr)
}

// logistic is the standard sigmoid 1/(1+exp(−x)) with overflow guards.
func logistic(x float64) float64 {
	switch {
	case x > 40:
		return 1
	case x < -40:
		return 0
	default:
		return 1 / (1 + math.Exp(-x))
	}
}
