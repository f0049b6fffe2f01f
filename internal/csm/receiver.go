package csm

import (
	"fmt"
	"math"

	"mcsm/internal/cells"
	"mcsm/internal/table"
)

// fillReceiverCaps characterizes the input (receiver) capacitances CA/CB of
// Eq. 3: the loading a cell presents to its driver. Per §3.3 these are kept
// input-voltage-dependent only — the driver of a net cannot know its
// fanouts' output voltages — so the extraction averages over a secondary
// grid of the other input and the output voltage. The internal node is left
// free, as it is in a real receiving cell.
//
// Each secondary-grid combination is one shard unit. A unit writes its
// samples (one row per ramp slope, or one row of operating-point values
// for direct caps) into its own slots, and the average sums those rows in
// unit order, then row order, exactly as the serial loop adds them.
func fillReceiverCaps(m *Model, tech cells.Tech, spec cells.Spec, cfg Config, shards int) error {
	hs, err := newHarnesses(shards, tech, spec, m.Inputs, false, cfg.Fast)
	if err != nil {
		return err
	}
	nIn := len(m.Inputs)
	lo, hi := -m.DeltaV, m.Vdd+m.DeltaV

	// Secondary sweep: the other modeled inputs and the output voltage.
	secAxes := make([]table.Axis, 0, nIn)
	for j := 0; j < nIn-1; j++ {
		secAxes = append(secAxes, table.Uniform("sec", 0, m.Vdd, cfg.GridCap))
	}
	secAxes = append(secAxes, table.Uniform("out", 0, m.Vdd, cfg.GridCap))
	units := combos(secAxes, -1)
	rows := len(cfg.SlewTimes)
	if cfg.DirectCaps {
		rows = 1
	}

	m.CIn = make([]*table.Table, nIn)
	m.CPin = make([]*table.Table, nIn)
	for i := 0; i < nIn; i++ {
		axis := table.Uniform(m.Inputs[i], lo, hi, cfg.GridCap)
		samples := axis.Points
		ns := len(samples)
		cin := make([]float64, units*rows*ns)
		cpin := make([]float64, units*rows*ns)
		err := shard(len(hs), units, func(w, u int) error {
			sec := make([]float64, len(secAxes))
			combo(secAxes, -1, u, make([]int, len(secAxes)), sec)
			vin := make([]float64, nIn)
			k := 0
			for j := range vin {
				if j != i {
					vin[j] = sec[k]
					k++
				}
			}
			vo := sec[len(sec)-1]
			slots := u * rows * ns
			if cfg.DirectCaps {
				return receiverDirectUnit(m, hs[w], i, samples, vin, vo, cin[slots:], cpin[slots:])
			}
			return receiverTransientUnit(m, hs[w], cfg, i, samples, vin, vo, lo, hi, cin[slots:], cpin[slots:])
		})
		if err != nil {
			return err
		}
		acc := make([]float64, ns)
		accPin := make([]float64, ns)
		for r := 0; r < units*rows; r++ {
			for s := range samples {
				acc[s] += cin[r*ns+s]
				accPin[s] += cpin[r*ns+s]
			}
		}
		count := float64(units * rows)
		if m.CIn[i], err = table.New(axis); err != nil {
			return err
		}
		if m.CPin[i], err = table.New(axis); err != nil {
			return err
		}
		for s := range samples {
			m.CIn[i].Set(math.Max(acc[s]/count, capFloor), s)
			m.CPin[i].Set(math.Max(accPin[s]/count, capFloor), s)
		}
	}
	return nil
}

// receiverTransientUnit measures CA(v) samples from input-ramp transients
// (Eq. 3 with the output held at DC, so i_A = (CA+CmA)·dVA/dt) at one
// secondary point, one row of cin/cpin per slope.
func receiverTransientUnit(m *Model, h *harness, cfg Config, i int, samples, vin []float64, vo, lo, hi float64, cin, cpin []float64) error {
	pad := (hi - lo) / float64(len(samples)-1)
	coords := make([]float64, 0, m.rank())
	vnAt := make([]float64, len(samples))

	// DC pre-pass: learn the floating internal-node voltage at each sample
	// point, needed to evaluate the Miller table that is subtracted from
	// the measured total.
	for s, v := range samples {
		vin[i] = v
		h.setPoint(vin, 0, vo)
		x, err := h.dcSolve()
		if err != nil {
			return fmt.Errorf("csm: receiver DC at %v: %w", vin, err)
		}
		if h.nNode != 0 {
			vnAt[s] = x[int(h.nNode)-1]
		}
	}
	vin[i] = lo
	h.setPoint(vin, 0, vo)
	src, _ := h.source(i)
	for row, slew := range cfg.SlewTimes {
		slope := (hi - lo) / slew
		rs := rampSpec{
			axis: i, lo: lo, hi: hi, pad: pad,
			slope: slope, tFlat: settleTime,
		}
		res, err := h.runRamp(rs, cfg.TranDt, rs.timeOf(samples[len(samples)-1]), src.AuxIndex())
		if err != nil {
			return fmt.Errorf("csm: receiver ramp %s: %w", m.Inputs[i], err)
		}
		iw := res.AuxWave(src.AuxIndex())
		for s, v := range samples {
			// The input source reads the cell's injection into the pin;
			// ramping the pin up makes its capacitances draw −C_total·s.
			total := -iw.At(rs.timeOf(v)) / slope
			cpin[row*len(samples)+s] = math.Max(total, 0) // Eq. 3 total pin capacitance
			vin[i] = v
			coords = m.Coords(coords, vin, vnAt[s], vo)
			// Couplings carried as explicit model branches must not be
			// double-counted in the instantiated-cell residual CIn.
			branch := m.Cm[i].At(coords...)
			if m.HasInternalMiller() {
				branch += m.CmN[i].At(coords...)
			}
			cin[row*len(samples)+s] = math.Max(total-branch, 0)
		}
	}
	return nil
}

// receiverDirectUnit measures operating-point input capacitances at one
// secondary point for the direct extraction mode.
func receiverDirectUnit(m *Model, h *harness, i int, samples, vin []float64, vo float64, cin, cpin []float64) error {
	for s, v := range samples {
		vin[i] = v
		h.setPoint(vin, 0, vo)
		x, err := h.dcSolve()
		if err != nil {
			return fmt.Errorf("csm: direct receiver DC: %w", err)
		}
		lp := lumpDeviceCaps(h, x)
		c := lp.inStatic[i]
		if !m.HasInternalMiller() {
			// Without the extension the input↔N coupling has no branch
			// of its own and loads the pin directly.
			c += lp.inN[i]
		}
		cin[s] = c
		cpin[s] = lp.inStatic[i] + lp.inN[i] + lp.inOut[i]
	}
	return nil
}
