// Package nldm implements the conventional voltage-based timing model the
// paper's introduction argues against: per-arc delay and output-slew lookup
// tables indexed by input transition time and lumped output load (the
// classic non-linear delay model of .lib files), with saturated-ramp
// waveform reconstruction.
//
// It exists as the comparison baseline for the motivation experiments —
// identical arrival/slew inputs with different waveform *shapes* produce
// identical NLDM predictions, which is precisely the failure mode current
// source models fix.
package nldm

import (
	"fmt"
	"math"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/table"
	"mcsm/internal/units"
	"mcsm/internal/wave"
)

// Arc is one characterized timing arc: a switching input pin (with its
// direction) through a cell to the output. Delay is the 50%–50%
// propagation delay; Slew the output 10–90% transition time. Both are 2-D
// tables over (input slew, load capacitance).
type Arc struct {
	Cell      string
	Input     string
	InputRise bool // direction of the switching input
	OutRise   bool // resulting output direction (inverting cells: !InputRise)
	Delay     *table.Table
	Slew      *table.Table
}

// Library is a set of characterized arcs at one supply voltage.
type Library struct {
	Vdd  float64
	Arcs []Arc
	// InputCap maps input pin name → lumped pin capacitance (farads): the
	// load an NLDM-only analysis charges a driving stage with per fanout
	// pin. Characterize fills a technology estimate; Liberty ingestion
	// carries the file's pin capacitance attributes through exactly.
	InputCap map[string]float64
}

// InputCapFor returns the pin's lumped input capacitance.
func (l *Library) InputCapFor(pin string) (float64, error) {
	if c, ok := l.InputCap[pin]; ok {
		return c, nil
	}
	return 0, fmt.Errorf("nldm: no input capacitance for pin %q", pin)
}

// Config controls NLDM characterization.
type Config struct {
	Slews []float64 // input transition times (0–100%)
	Loads []float64 // lumped load capacitances
	Dt    float64   // transient step
}

// DefaultConfig returns a 4×4 grid spanning typical cell operating points.
func DefaultConfig(tech cells.Tech) Config {
	fo1 := tech.MinInverterInputCap()
	return Config{
		Slews: []float64{30 * units.PS, 80 * units.PS, 160 * units.PS, 320 * units.PS},
		Loads: []float64{1 * fo1, 2 * fo1, 4 * fo1, 8 * fo1},
		Dt:    2 * units.PS,
	}
}

// Characterize builds the NLDM arcs of a cell by transistor-level
// simulation: for each input pin and direction, the other inputs are held
// non-controlling, a saturated ramp drives the pin into each (slew, load)
// grid point, and the delay/slew are measured.
func Characterize(tech cells.Tech, spec cells.Spec, cfg Config) (*Library, error) {
	if len(cfg.Slews) < 2 || len(cfg.Loads) < 2 {
		return nil, fmt.Errorf("nldm: need at least a 2x2 grid")
	}
	lib := &Library{Vdd: tech.Vdd, InputCap: map[string]float64{}}
	for _, pin := range spec.Inputs {
		// Pin load estimate: the minimum inverter's gate capacitance scaled
		// by the cell's drive (device widths scale with Drive, and gate cap
		// scales with width). NLDM loading is approximate by construction;
		// the CSM receiver tables remain the accurate source.
		drive := spec.Drive
		if drive <= 0 {
			drive = 1
		}
		lib.InputCap[pin] = tech.MinInverterInputCap() * drive
		for _, inputRise := range []bool{true, false} {
			arc, err := characterizeArc(tech, spec, pin, inputRise, cfg)
			if err != nil {
				return nil, err
			}
			lib.Arcs = append(lib.Arcs, arc)
		}
	}
	return lib, nil
}

func characterizeArc(tech cells.Tech, spec cells.Spec, pin string, inputRise bool, cfg Config) (Arc, error) {
	arc := Arc{
		Cell:      spec.Name,
		Input:     pin,
		InputRise: inputRise,
		OutRise:   !inputRise, // all catalog cells invert
	}
	slewAxis := table.Axis{Name: "slew", Points: cfg.Slews}
	loadAxis := table.Axis{Name: "load", Points: cfg.Loads}
	var err error
	if arc.Delay, err = table.New(slewAxis, loadAxis); err != nil {
		return arc, err
	}
	if arc.Slew, err = table.New(slewAxis, loadAxis); err != nil {
		return arc, err
	}

	for si, slew := range cfg.Slews {
		for li, load := range cfg.Loads {
			d, s, err := measurePoint(tech, spec, pin, inputRise, slew, load, cfg.Dt)
			if err != nil {
				return arc, fmt.Errorf("nldm: %s/%s rise=%v slew=%s load=%s: %w",
					spec.Name, pin, inputRise, units.FormatSeconds(slew), units.FormatFarads(load), err)
			}
			arc.Delay.Set(d, si, li)
			arc.Slew.Set(s, si, li)
		}
	}
	return arc, nil
}

// measurePoint runs one transistor-level transient and extracts delay/slew.
func measurePoint(tech cells.Tech, spec cells.Spec, pin string, inputRise bool, slew, load, dt float64) (delay, outSlew float64, err error) {
	b := newBench(tech, spec, pin, inputRise, slew, load)
	res, err := b.run(dt)
	if err != nil {
		return 0, 0, err
	}
	return b.measure(res.Wave(b.out))
}

// bench is the transistor-level set-up of one table point: the cell with
// a saturated ramp on the switching pin, the other inputs parked at their
// non-controlling levels, and the load capacitor on the output.
type bench struct {
	ckt     *spice.Circuit
	out     spice.Node
	in      wave.Waveform // the switching pin's stimulus
	vdd     float64
	outRise bool // all catalog cells invert
	horizon float64
}

func newBench(tech cells.Tech, spec cells.Spec, pin string, inputRise bool, slew, load float64) bench {
	vdd := tech.Vdd
	start := 0.3e-9
	b := bench{vdd: vdd, outRise: !inputRise, horizon: start + slew + 3e-9}

	c := spice.NewCircuit()
	vddN := c.Node("vdd")
	c.AddVSource("VDD", vddN, spice.Ground, spice.DC(vdd))
	inputs := make([]spice.Node, len(spec.Inputs))
	for i, p := range spec.Inputs {
		inputs[i] = c.Node("in_" + p)
		if p == pin {
			v0, v1 := 0.0, vdd
			if !inputRise {
				v0, v1 = vdd, 0
			}
			b.in = wave.SaturatedRamp(v0, v1, start, slew, b.horizon)
			c.AddVSource("V"+p, inputs[i], spice.Ground, b.in)
			continue
		}
		c.AddVSource("V"+p, inputs[i], spice.Ground, spice.DC(spec.NonControllingLevelFor(p, vdd)))
	}
	b.out = c.Node("out")
	spec.Build(c, tech, "X", inputs, b.out, vddN, spec.Drive)
	c.AddCapacitor("CL", b.out, spice.Ground, load)
	b.ckt = c
	return b
}

// measure reads the 50% delay and the output's 10–90% slew off an output
// record.
func (b bench) measure(outW wave.Waveform) (delay, outSlew float64, err error) {
	delay, err = wave.Delay50(b.in, outW, b.vdd, 0)
	if err != nil {
		return 0, 0, err
	}
	outSlew, err = wave.TransitionTime(outW, b.vdd, b.outRise, 0.1, 0.9, 0)
	if err != nil {
		return 0, 0, err
	}
	return delay, outSlew, nil
}

// run simulates the bench, recording only the output, and ends at the
// first step where measure succeeds. The measurements return first
// crossings, and Crossings decides each one from its own segment's two
// samples, so a record prefix on which they succeed gives the full
// horizon's values bit for bit. They are tried only once the newest
// output sample is past the far slew threshold, which the 10–90%
// measurement needs; an output that never gets there runs to the
// horizon and fails as before.
func (b bench) run(dt float64) (*spice.Result, error) {
	eng := spice.NewEngine(b.ckt, spice.DefaultOptions())
	done := func(r *spice.Result) bool {
		outW := r.Wave(b.out)
		v := outW.Last()
		if b.outRise && !(v > 0.9*b.vdd) || !b.outRise && !(v < 0.1*b.vdd) {
			return false
		}
		_, _, err := b.measure(outW)
		return err == nil
	}
	return eng.RunUntil(0, b.horizon, dt, done, int(b.out)-1)
}

// FindArc returns the arc for the given input pin and direction.
func (l *Library) FindArc(cell, pin string, inputRise bool) (*Arc, error) {
	for i := range l.Arcs {
		a := &l.Arcs[i]
		if a.Cell == cell && a.Input == pin && a.InputRise == inputRise {
			return a, nil
		}
	}
	return nil, fmt.Errorf("nldm: no arc %s/%s rise=%v", cell, pin, inputRise)
}

// Evaluate interpolates the arc at an (input slew, load) point.
func (a *Arc) Evaluate(slewIn, load float64) (delay, slewOut float64) {
	return a.Delay.At2(slewIn, load), a.Slew.At2(slewIn, load)
}

// OutputRamp reconstructs the voltage-based model's output waveform: a
// saturated ramp whose 50% crossing sits at tIn50+delay and whose 10–90%
// transition time equals the predicted slew. This is all the shape
// information NLDM retains — the point of the paper's critique.
func (a *Arc) OutputRamp(vdd, tIn50, slewIn, load, horizon float64) wave.Waveform {
	delay, slewOut := a.Evaluate(slewIn, load)
	// 10–90% covers 80% of the swing; a full 0–100% linear ramp of the same
	// slope lasts slewOut/0.8 and is centered on the 50% crossing.
	full := slewOut / 0.8
	t50 := tIn50 + delay
	startT := t50 - full/2
	v0, v1 := 0.0, vdd
	if !a.OutRise {
		v0, v1 = vdd, 0
	}
	end := math.Max(horizon, startT+full+1e-12)
	return wave.SaturatedRamp(v0, v1, startT, full, end)
}
