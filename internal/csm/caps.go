package csm

import (
	"fmt"
	"math"

	"mcsm/internal/spice"
	"mcsm/internal/table"
)

// capFloor is the minimum stored capacitance. Lumped subtraction (e.g.
// Co = Co_total − ΣCm) can dip slightly negative from extraction noise; a
// small positive floor keeps the Eq. 4 denominator well-defined.
const capFloor = 1e-19

// settleTime is the flat interval before each extraction ramp begins.
const settleTime = 20e-12

// capMeasure is one capacitance table a ramp fills: the model axis whose
// source current it reads and that current's DC value on the cap grid.
type capMeasure struct {
	t    *table.Table
	axis int
	dc   *table.Table
}

// fillCapsTransient runs the paper's §3.3 capacitance extraction:
// saturated ramps are applied to one model node while all other model
// nodes are held at DC grid values; a monitored source current, minus the
// exact DC component, divided by the ramp slope, yields a capacitance.
// Values are averaged over the configured slopes.
//
// One ramp yields the current of every source, so each node is ramped
// once and fills every table that reads its ramp: an input fills its
// Miller table Cm (output source) and, with the internal Miller
// extension, CmN (internal source); the output fills the total output
// capacitance and CmNO; the internal node fills CN. The DC currents that
// the measurements subtract are solved once per cap-grid point, up front.
func fillCapsTransient(m *Model, hs []*harness, cfg Config) error {
	axes := makeAxes(m, cfg.GridCap, 0)
	nIn := len(m.Inputs)
	outAxis := len(axes) - 1
	intAxis := -1
	if m.Kind == KindMCSM {
		intAxis = nIn
	}
	withNMiller := m.Kind == KindMCSM && !cfg.NoInternalMiller

	dcIo, dcIN, err := dcTables(m, hs, axes)
	if err != nil {
		return fmt.Errorf("csm: cap grid: %w", err)
	}
	newTable := func() *table.Table { return table.MustNew(axes...) }
	// ramped node axis -> the tables its ramp fills
	passes := make([][]capMeasure, len(axes))
	m.Cm = make([]*table.Table, nIn)
	if withNMiller {
		m.CmN = make([]*table.Table, nIn)
	}
	for i := 0; i < nIn; i++ {
		m.Cm[i] = newTable()
		passes[i] = []capMeasure{{m.Cm[i], outAxis, dcIo}}
		if withNMiller {
			m.CmN[i] = newTable()
			passes[i] = append(passes[i], capMeasure{m.CmN[i], intAxis, dcIN})
		}
	}
	coTotal := newTable()
	passes[outAxis] = []capMeasure{{coTotal, outAxis, dcIo}}
	if withNMiller {
		m.CmNO = newTable()
		passes[outAxis] = append(passes[outAxis], capMeasure{m.CmNO, intAxis, dcIN})
	}
	var cn *table.Table
	if m.Kind == KindMCSM {
		cn = newTable()
		passes[intAxis] = []capMeasure{{cn, intAxis, dcIN}}
	}
	for r, meas := range passes {
		if err := rampPass(m, hs, cfg, axes, r, meas); err != nil {
			return fmt.Errorf("csm: %s ramps: %w", axes[r].Name, err)
		}
	}

	// The output ramp sees every capacitance attached to the output,
	// including the Miller couplings; the model applies those separately,
	// so subtract.
	co := coTotal
	for _, cm := range m.Cm {
		co, err = table.Combine(co, cm, func(total, miller float64) float64 { return total - miller })
		if err != nil {
			return err
		}
	}
	if withNMiller {
		co, err = table.Combine(co, m.CmNO, func(total, miller float64) float64 { return total - miller })
		if err != nil {
			return err
		}
	}
	m.Co = co.Map(func(v float64) float64 { return math.Max(v, capFloor) })

	// Internal node capacitance: couplings of N lump into CN except those
	// carried as explicit branches (the CmN/CmNO extension); without the
	// extension everything folds into CN, matching the paper's §3.2
	// lumping.
	if cn != nil {
		if withNMiller {
			for _, cmn := range m.CmN {
				cn, err = table.Combine(cn, cmn, func(total, miller float64) float64 { return total - miller })
				if err != nil {
					return err
				}
			}
			cn, err = table.Combine(cn, m.CmNO, func(total, miller float64) float64 { return total - miller })
			if err != nil {
				return err
			}
		}
		m.CN = cn.Map(func(v float64) float64 { return math.Max(v, capFloor) })
	}
	return nil
}

// rampPass ramps node r once per configured slope at every combination of
// the other axes' cap-grid values (one shard unit per combination) and
// fills each measured table along r's axis.
func rampPass(m *Model, hs []*harness, cfg Config, axes []table.Axis, r int, meas []capMeasure) error {
	rampPts := axes[r].Points
	lo, hi := rampPts[0], rampPts[len(rampPts)-1]
	pad := (hi - lo) / float64(len(rampPts)-1)
	return shard(len(hs), combos(axes, r), func(w, u int) error {
		h := hs[w]
		idx := make([]int, len(axes))
		coords := make([]float64, len(axes))
		combo(axes, r, u, idx, coords)
		keep := make([]int, len(meas))
		for j, ms := range meas {
			src, _ := h.source(ms.axis)
			keep[j] = src.AuxIndex()
		}
		acc := make([]float64, len(meas)*len(rampPts))

		// Park the DC point at the low end of the ramped span; the ramp
		// stimulus takes over the ramped source for the run.
		coords[r] = lo
		vin, vn, vo := splitCoords(m, coords)
		h.setPoint(vin, vn, vo)
		for _, slew := range cfg.SlewTimes {
			slope := (hi - lo) / slew
			rs := rampSpec{
				axis: r, lo: lo, hi: hi, pad: pad,
				slope: slope, tFlat: settleTime,
			}
			res, err := h.runRamp(rs, cfg.TranDt, rs.timeOf(hi), keep...)
			if err != nil {
				return err
			}
			for j, ms := range meas {
				// Sign convention: a monitored source reads the current the
				// cell injects into its node. Ramping a *different* node
				// drives coupling current into the monitored node (+C·s);
				// ramping the monitored node itself makes its own
				// capacitances draw charge *out* of it (−C·s).
				sign := 1.0
				if ms.axis == r {
					sign = -1.0
				}
				iw := res.AuxWave(keep[j])
				for k, v := range rampPts {
					idx[r] = k
					iCap := iw.At(rs.timeOf(v)) - ms.dc.Get(idx...)
					acc[j*len(rampPts)+k] += sign * iCap / slope
				}
			}
		}
		for j, ms := range meas {
			for k := range rampPts {
				idx[r] = k
				ms.t.Set(math.Max(acc[j*len(rampPts)+k]/float64(len(cfg.SlewTimes)), 0), idx...)
			}
		}
		return nil
	})
}

// fillCapsDirect computes the lumped capacitances by summing the device
// terminal capacitances at each DC operating point — the fast path and the
// EXP-A2 comparison partner for the transient procedure. Each cap-grid
// point is one shard unit.
func fillCapsDirect(m *Model, hs []*harness, cfg Config) error {
	axes := makeAxes(m, cfg.GridCap, 0)
	nIn := len(m.Inputs)
	var err error

	withNMiller := m.Kind == KindMCSM && !cfg.NoInternalMiller

	m.Cm = make([]*table.Table, nIn)
	for i := range m.Cm {
		if m.Cm[i], err = table.New(axes...); err != nil {
			return err
		}
	}
	if m.Co, err = table.New(axes...); err != nil {
		return err
	}
	if m.Kind == KindMCSM {
		if m.CN, err = table.New(axes...); err != nil {
			return err
		}
	}
	if withNMiller {
		m.CmN = make([]*table.Table, nIn)
		for i := range m.CmN {
			if m.CmN[i], err = table.New(axes...); err != nil {
				return err
			}
		}
		if m.CmNO, err = table.New(axes...); err != nil {
			return err
		}
	}

	return shard(len(hs), combos(axes, -1), func(w, u int) error {
		h := hs[w]
		idx := make([]int, len(axes))
		coords := make([]float64, len(axes))
		combo(axes, -1, u, idx, coords)
		vin, vn, vo := splitCoords(m, coords)
		h.setPoint(vin, vn, vo)
		x, err := h.dcSolve()
		if err != nil {
			return fmt.Errorf("csm: direct caps DC at %v: %w", coords, err)
		}
		lump := lumpDeviceCaps(h, x)
		var sumInN float64
		for i := range m.Cm {
			m.Cm[i].Set(lump.inOut[i], idx...)
			sumInN += lump.inN[i]
		}
		co := lump.outStatic
		if withNMiller {
			for i := range m.CmN {
				m.CmN[i].Set(lump.inN[i], idx...)
			}
			m.CmNO.Set(lump.outN, idx...)
			m.CN.Set(math.Max(lump.nStatic, capFloor), idx...)
		} else {
			// The paper's lumping: all N couplings fold into CN; the N-Out
			// coupling additionally loads the output, exactly as the
			// transient extraction measures it.
			co += lump.outN
			if m.CN != nil {
				m.CN.Set(math.Max(lump.nStatic+lump.outN+sumInN, capFloor), idx...)
			}
		}
		m.Co.Set(math.Max(co, capFloor), idx...)
		return nil
	})
}

// lumped holds raw pairwise capacitance sums at one operating point,
// grouped by which model nodes the physical terminals map to. "Static"
// means supply, ground, a held input, or an unmodeled internal node.
type lumped struct {
	inOut     []float64 // input i <-> output
	inN       []float64 // input i <-> modeled internal node
	inStatic  []float64 // input i <-> static
	outN      float64   // output <-> modeled internal node
	outStatic float64   // output <-> static
	nStatic   float64   // modeled internal node <-> static
}

// lumpDeviceCaps walks the harness's MOSFETs and accumulates their terminal
// capacitances into raw pairwise categories at the solution x.
func lumpDeviceCaps(h *harness, x []float64) lumped {
	nIn := len(h.inNodes)
	lp := lumped{
		inOut:    make([]float64, nIn),
		inN:      make([]float64, nIn),
		inStatic: make([]float64, nIn),
	}
	vOf := func(n spice.Node) float64 {
		if n == spice.Ground {
			return 0
		}
		return x[int(n)-1]
	}
	inIdx := func(n spice.Node) int {
		for i, in := range h.inNodes {
			if in == n {
				return i
			}
		}
		return -1
	}
	addPair := func(a, b spice.Node, c float64) {
		if c == 0 || a == b {
			return
		}
		ia, ib := inIdx(a), inIdx(b)
		isOutA, isOutB := a == h.outNode, b == h.outNode
		isNA := a == h.nNode && h.nNode != 0
		isNB := b == h.nNode && h.nNode != 0
		switch {
		case (ia >= 0 && isOutB) || (ib >= 0 && isOutA):
			k := ia
			if k < 0 {
				k = ib
			}
			lp.inOut[k] += c
		case (ia >= 0 && isNB) || (ib >= 0 && isNA):
			k := ia
			if k < 0 {
				k = ib
			}
			lp.inN[k] += c
		case (isOutA && isNB) || (isOutB && isNA):
			lp.outN += c
		case isNA || isNB:
			lp.nStatic += c
		case isOutA || isOutB:
			lp.outStatic += c
		case ia >= 0:
			lp.inStatic[ia] += c
		case ib >= 0:
			lp.inStatic[ib] += c
		}
	}
	for _, el := range h.ckt.Elements() {
		mos, ok := el.(*spice.MOSFET)
		if !ok {
			continue
		}
		d, g, s, b := mos.Terminals()
		caps := mos.CapsAt(vOf(d), vOf(g), vOf(s), vOf(b))
		addPair(g, s, caps.CGS)
		addPair(g, d, caps.CGD)
		addPair(g, b, caps.CGB)
		addPair(d, b, caps.CDB)
		addPair(s, b, caps.CSB)
	}
	return lp
}
