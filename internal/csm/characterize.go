package csm

import (
	"fmt"
	"runtime"

	"mcsm/internal/cells"
	"mcsm/internal/table"
)

// Characterize builds a CSM of the given kind for a library cell, running
// the full §3.3 procedure against the transistor-level reference:
//
//  1. Current tables Io (and IN for MCSM) from DC sweeps with every model
//     node forced over [−Δv, Vdd+Δv].
//  2. Capacitance tables from transient saturated-ramp analyses — one node
//     ramped, the others held — with exact DC-current subtraction and
//     averaging over the configured ramp slopes (unless cfg selects the
//     direct operating-point extraction).
//  3. Receiver input capacitances (Eq. 3) from input-ramp transients with
//     the internal node left free, averaged over the secondary grid, and
//     reduced to input-voltage dependence only (§3.3's practicality
//     argument).
//
// The independent units of each step (DC grid rows, ramp combinations,
// receiver combinations) run on runtime.GOMAXPROCS(0) workers, each with
// its own transistor-level bench; the model is bit-identical at any
// worker count (see shard). Fast mode chains warm starts through the
// visit order, so it runs on one worker.
func Characterize(tech cells.Tech, spec cells.Spec, kind Kind, cfg Config) (*Model, error) {
	return characterize(tech, spec, kind, cfg, runtime.GOMAXPROCS(0))
}

// characterize is Characterize on the given number of shards.
func characterize(tech cells.Tech, spec cells.Spec, kind Kind, cfg Config, shards int) (*Model, error) {
	cfg = cfg.withDefaults(tech.Vdd)
	if cfg.Fast || shards < 1 {
		shards = 1
	}

	inputs := spec.ModelInputs
	if kind == KindSIS {
		inputs = inputs[:1]
	}
	if kind != KindSIS && len(inputs) != 2 {
		return nil, fmt.Errorf("csm: %s needs 2 modeled inputs, %s has %d", kind, spec.Name, len(inputs))
	}
	if kind == KindMCSM && spec.Internal == "" {
		return nil, fmt.Errorf("csm: %s has no internal node; use KindMISBaseline", spec.Name)
	}

	m := &Model{
		Kind:   kind,
		Cell:   spec.Name,
		Vdd:    tech.Vdd,
		Inputs: append([]string(nil), inputs...),
		Held:   heldLevels(spec, inputs, tech.Vdd),
		DeltaV: cfg.DeltaV,
	}
	if kind == KindMCSM {
		m.Internal = spec.Internal
	}

	// Each shard keeps one bench for the whole current+capacitance
	// procedure: the circuit/engine pair is built once per worker, not once
	// per table. Every exact-path solve on it is self-contained, so which
	// bench runs a unit is bit-neutral, while fast mode's single bench
	// chains warm starts across the grid.
	hs, err := newHarnesses(shards, tech, spec, inputs, kind == KindMCSM, cfg.Fast)
	if err != nil {
		return nil, err
	}
	if m.Io, m.IN, err = dcTables(m, hs, makeAxes(m, cfg.GridCurrent, cfg.GridInternal)); err != nil {
		return nil, err
	}
	if cfg.DirectCaps {
		err = fillCapsDirect(m, hs, cfg)
	} else {
		err = fillCapsTransient(m, hs, cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := fillReceiverCaps(m, tech, spec, cfg, shards); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("csm: characterization produced invalid model: %w", err)
	}
	return m, nil
}

// heldLevels returns the park level for every input pin not in modeled.
// For KindSIS this includes the cell's second modeled input.
func heldLevels(spec cells.Spec, modeled []string, vdd float64) map[string]float64 {
	inModel := make(map[string]bool, len(modeled))
	for _, p := range modeled {
		inModel[p] = true
	}
	held := map[string]float64{}
	for _, p := range spec.Inputs {
		if !inModel[p] {
			held[p] = spec.NonControllingLevelFor(p, vdd)
		}
	}
	return held
}

// axisNames returns the table axis names for the model: inputs, optional
// internal node, output.
func axisNames(m *Model) []string {
	names := append([]string(nil), m.Inputs...)
	if m.Kind == KindMCSM {
		names = append(names, m.Internal)
	}
	return append(names, "Out")
}

// railAxis builds a rail-anchored axis: n points uniformly spanning
// [0, Vdd] — so the exact logic levels are grid points — plus one margin
// point at each end (−Δv and Vdd+Δv). Anchoring the rails matters: the
// model currents are exponential in the gate overdrive, and linearly
// interpolating a nominal input level against an overdriven margin point
// inflates subthreshold currents by an order of magnitude.
func railAxis(name string, vdd, deltaV float64, n int) table.Axis {
	if n < 2 {
		n = 2
	}
	pts := make([]float64, 0, n+2)
	pts = append(pts, -deltaV)
	for k := 0; k < n; k++ {
		pts = append(pts, vdd*float64(k)/float64(n-1))
	}
	pts = append(pts, vdd+deltaV)
	return table.Axis{Name: name, Points: pts}
}

// makeAxes builds rail-anchored axes with n interior points each.
// nInternal, when positive, overrides the density of the internal-node axis
// (the IN(VN) exponential knee needs finer sampling, see Config).
func makeAxes(m *Model, n, nInternal int) []table.Axis {
	names := axisNames(m)
	axes := make([]table.Axis, len(names))
	for i, name := range names {
		pts := n
		if nInternal > 0 && m.Kind == KindMCSM && i == len(m.Inputs) {
			pts = nInternal
		}
		axes[i] = railAxis(name, m.Vdd, m.DeltaV, pts)
	}
	return axes
}

// splitCoords unpacks a table coordinate vector into input voltages, the
// internal voltage (NaN-free: equals 0 for non-MCSM), and output voltage.
func splitCoords(m *Model, coords []float64) (vin []float64, vn, vo float64) {
	k := len(m.Inputs)
	vin = coords[:k]
	if m.Kind == KindMCSM {
		vn = coords[k]
		k++
	}
	vo = coords[k]
	return vin, vn, vo
}

// combos counts the index combinations over axes with axis skip held out
// (skip < 0 holds none out).
func combos(axes []table.Axis, skip int) int {
	n := 1
	for d, a := range axes {
		if d != skip {
			n *= len(a.Points)
		}
	}
	return n
}

// combo decodes unit u of combos(axes, skip) into idx and coords for every
// axis but skip, in row-major order: the last axis varies fastest, as in
// table storage. idx[skip] and coords[skip] are left for the caller.
func combo(axes []table.Axis, skip, u int, idx []int, coords []float64) {
	for d := len(axes) - 1; d >= 0; d-- {
		if d == skip {
			continue
		}
		n := len(axes[d].Points)
		idx[d] = u % n
		coords[d] = axes[d].Points[idx[d]]
		u /= n
	}
}

// dcTables sweeps the DC grid over axes and returns the current the cell
// injects into the output (Io) and, for MCSM, into the internal node
// (IN). Each unit is one grid row along the output axis, the innermost
// loop, so in fast mode every solve warm-starts Newton from its neighbor
// one output increment away (the operating points differ by a fraction of
// Vdd, so the warm start converges in a couple of iterations instead of a
// full homotopy ladder).
func dcTables(m *Model, hs []*harness, axes []table.Axis) (io, iN *table.Table, err error) {
	if io, err = table.New(axes...); err != nil {
		return nil, nil, err
	}
	if m.Kind == KindMCSM {
		if iN, err = table.New(axes...); err != nil {
			return nil, nil, err
		}
	}
	outAxis := len(axes) - 1
	err = shard(len(hs), combos(axes, outAxis), func(w, u int) error {
		h := hs[w]
		idx := make([]int, len(axes))
		coords := make([]float64, len(axes))
		combo(axes, outAxis, u, idx, coords)
		for k, vo := range axes[outAxis].Points {
			coords[outAxis] = vo
			idx[outAxis] = k
			vin, vn, _ := splitCoords(m, coords)
			h.setPoint(vin, vn, vo)
			ioVal, inVal, err := h.dcCurrents()
			if err != nil {
				return fmt.Errorf("csm: DC sweep at %v: %w", coords, err)
			}
			io.Set(ioVal, idx...)
			if iN != nil {
				iN.Set(inVal, idx...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return io, iN, nil
}
