package spice

import (
	"math"
	"testing"

	"mcsm/internal/device"
	"mcsm/internal/wave"
)

func TestDCVoltageDivider(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	mid := c.Node("mid")
	c.AddVSource("V1", in, Ground, DC(2.0))
	c.AddResistor("R1", in, mid, 1e3)
	c.AddResistor("R2", mid, Ground, 3e3)
	e := NewEngine(c, DefaultOptions())
	x, err := e.DCAt(0)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance accounts for the deliberate gmin leak (1e-12 S) against the
	// kilo-ohm divider.
	if got := x[int(mid)-1]; math.Abs(got-1.5) > 1e-7 {
		t.Errorf("divider mid = %g, want 1.5", got)
	}
	// Source current: 2V across 4k = 0.5mA delivered by the source, so the
	// current flowing into the source at its positive terminal is −0.5mA.
	if got := x[e.nNodes]; math.Abs(got+0.5e-3) > 1e-9 {
		t.Errorf("source current = %g, want -0.5e-3", got)
	}
}

func TestTransientRCCharge(t *testing.T) {
	// Series R into C driven by a step; compare against the analytic
	// exponential. R=1k, C=1pF, tau=1ns.
	c := NewCircuit()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("V1", in, Ground, wave.SaturatedRamp(0, 1, 1e-12, 1e-12, 20e-9))
	c.AddResistor("R", in, out, 1e3)
	c.AddCapacitor("C", out, Ground, 1e-12)
	e := NewEngine(c, DefaultOptions())
	res, err := e.Run(0, 10e-9, 5e-12)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Wave(out)
	tau := 1e-9
	for _, tt := range []float64{1e-9, 2e-9, 5e-9} {
		want := 1 - math.Exp(-(tt-2e-12)/tau)
		got := w.At(tt)
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("RC at %g: got %g want %g", tt, got, want)
		}
	}
	// Fully charged at the end.
	if got := w.At(10e-9); math.Abs(got-1) > 1e-3 {
		t.Errorf("final value %g", got)
	}
}

func TestTrapezoidalBeatsBackwardEuler(t *testing.T) {
	run := func(method Method) float64 {
		c := NewCircuit()
		in := c.Node("in")
		out := c.Node("out")
		c.AddVSource("V1", in, Ground, wave.SaturatedRamp(0, 1, 1e-12, 1e-12, 20e-9))
		c.AddResistor("R", in, out, 1e3)
		c.AddCapacitor("C", out, Ground, 1e-12)
		opt := DefaultOptions()
		opt.Method = method
		e := NewEngine(c, opt)
		res, err := e.Run(0, 5e-9, 50e-12)
		if err != nil {
			t.Fatal(err)
		}
		w := res.Wave(out)
		// Max error against analytic solution.
		maxErr := 0.0
		for _, tt := range []float64{0.5e-9, 1e-9, 1.5e-9, 2e-9, 3e-9} {
			want := 1 - math.Exp(-(tt-2e-12)/1e-9)
			if d := math.Abs(w.At(tt) - want); d > maxErr {
				maxErr = d
			}
		}
		return maxErr
	}
	be := run(BackwardEuler)
	tr := run(Trapezoidal)
	if tr >= be {
		t.Errorf("trapezoidal error %g not better than BE %g", tr, be)
	}
}

func TestVSourceCurrentMeasurement(t *testing.T) {
	// A 1V source across 1k: branch current should be −1mA (current enters
	// the source at the positive terminal from the resistor... the source
	// delivers +1mA out of its positive terminal, so the current flowing
	// p→n *through the source* is −1mA).
	c := NewCircuit()
	p := c.Node("p")
	v := c.AddVSource("V1", p, Ground, DC(1))
	c.AddResistor("R", p, Ground, 1e3)
	e := NewEngine(c, DefaultOptions())
	res, err := e.Run(0, 1e-9, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AuxWave(v.AuxIndex()).At(0.5e-9); math.Abs(got+1e-3) > 1e-9 {
		t.Errorf("source current = %g, want -1mA", got)
	}
}

func TestISourceIntoCap(t *testing.T) {
	// 1µA into 1pF: dV/dt = 1V/µs → 1mV after 1ns.
	c := NewCircuit()
	out := c.Node("out")
	c.Add(&ISource{name: "I1", a: Ground, b: out, stim: DC(1e-6)})
	c.AddCapacitor("C", out, Ground, 1e-12)
	e := NewEngine(c, DefaultOptions())
	// Start from a zero initial condition (an uncharged capacitor); the DC
	// solution of this circuit is unbounded by construction.
	x0 := make([]float64, e.Unknowns())
	res, err := e.RunFrom(x0, 0, 1e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Wave(out).At(1e-9)
	if math.Abs(got-1e-3) > 1e-5 {
		t.Errorf("cap ramp = %g, want 1mV", got)
	}
}

func TestInverterDCTransfer(t *testing.T) {
	np := device.N130()
	pp := device.P130()
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("VDD", vdd, Ground, DC(1.2))
	vin := c.AddVSource("VIN", in, Ground, DC(0))
	c.AddMOS("MN", out, in, Ground, Ground, &np, 0.2e-6)
	c.AddMOS("MP", out, in, vdd, vdd, &pp, 0.4e-6)
	e := NewEngine(c, DefaultOptions())
	_ = vin

	// Sweep input via fresh engines (stimulus is fixed); check monotone
	// falling transfer characteristic with full rails.
	prev := math.Inf(1)
	for _, vi := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2} {
		c2 := NewCircuit()
		vdd2 := c2.Node("vdd")
		in2 := c2.Node("in")
		out2 := c2.Node("out")
		c2.AddVSource("VDD", vdd2, Ground, DC(1.2))
		c2.AddVSource("VIN", in2, Ground, DC(vi))
		c2.AddMOS("MN", out2, in2, Ground, Ground, &np, 0.2e-6)
		c2.AddMOS("MP", out2, in2, vdd2, vdd2, &pp, 0.4e-6)
		e2 := NewEngine(c2, DefaultOptions())
		x, err := e2.DCAt(0)
		if err != nil {
			t.Fatalf("DC at vin=%g: %v", vi, err)
		}
		vo := x[int(out2)-1]
		if vo > prev+1e-6 {
			t.Errorf("transfer not monotone at vin=%g: %g after %g", vi, vo, prev)
		}
		prev = vo
		if vi == 0 && vo < 1.15 {
			t.Errorf("output at vin=0: %g, want ≈1.2", vo)
		}
		if vi == 1.2 && vo > 0.05 {
			t.Errorf("output at vin=1.2: %g, want ≈0", vo)
		}
	}
	_ = e
}

func TestInverterTransient(t *testing.T) {
	np := device.N130()
	pp := device.P130()
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("VDD", vdd, Ground, DC(1.2))
	c.AddVSource("VIN", in, Ground, wave.SaturatedRamp(0, 1.2, 0.5e-9, 80e-12, 3e-9))
	c.AddMOS("MN", out, in, Ground, Ground, &np, 0.2e-6)
	c.AddMOS("MP", out, in, vdd, vdd, &pp, 0.4e-6)
	c.AddCapacitor("CL", out, Ground, 5e-15)
	e := NewEngine(c, DefaultOptions())
	res, err := e.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Wave(out)
	if got := w.At(0.3e-9); got < 1.1 {
		t.Errorf("output before switch = %g, want high", got)
	}
	if got := w.At(2.5e-9); got > 0.1 {
		t.Errorf("output after switch = %g, want low", got)
	}
	// 50% delay is positive and sub-200ps for this light load.
	d, err := wave.Delay50(res.Wave(in), w, 1.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 200e-12 {
		t.Errorf("inverter delay = %g", d)
	}
}

func TestRunValidation(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddResistor("R", n, Ground, 1e3)
	e := NewEngine(c, DefaultOptions())
	if _, err := e.Run(0, -1e-9, 1e-12); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := e.Run(0, 1e-9, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := e.RunFrom([]float64{1, 2, 3}, 0, 1e-9, 1e-12); err == nil {
		t.Error("wrong-size initial state accepted")
	}
}

func TestNodeNames(t *testing.T) {
	c := NewCircuit()
	a := c.Node("a")
	a2 := c.Node("a")
	if a != a2 {
		t.Error("node lookup not idempotent")
	}
	if c.Node("0") != Ground || c.Node("b") != a+1 {
		t.Error("node numbering wrong")
	}
	if c.NumNodes() != 3 {
		t.Errorf("NumNodes = %d", c.NumNodes())
	}
}

func TestResultHelpers(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddVSource("V", n, Ground, DC(1))
	e := NewEngine(c, DefaultOptions())
	res, err := e.Run(0, 1e-9, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps() < 10 {
		t.Errorf("steps = %d", res.Steps())
	}
	w, err := res.WaveByName("n")
	if err != nil || math.Abs(w.At(0.5e-9)-1) > 1e-9 {
		t.Errorf("WaveByName: %v %v", w, err)
	}
	if _, err := res.WaveByName("zzz"); err == nil {
		t.Error("unknown node accepted")
	}
	if g := res.Wave(Ground); g.V[0] != 0 {
		t.Error("ground wave not zero")
	}
}

// TestResultReservation: a fixed-step run records into exactly the
// columns it reserved; an unknown or out-of-range step count (an adaptive
// run, an overflowed count) reserves a small default and doubles, and
// samples recorded past any reservation keep their values.
func TestResultReservation(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddVSource("V", n, Ground, DC(1))
	e := NewEngine(c, DefaultOptions())
	res, err := e.Run(0, 1e-9, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if cap(res.Times) != res.Steps() {
		t.Errorf("run of %d points reserved %d time slots", res.Steps(), cap(res.Times))
	}
	for i, col := range res.cols {
		if len(col) != res.Steps() || cap(col) != res.Steps() {
			t.Errorf("unknown %d: %d samples in %d reserved slots, want %d", i, len(col), cap(col), res.Steps())
		}
	}
	for _, steps := range []int{-1, 0, MaxSteps + 1} {
		if r := newResult(c, 2, steps, nil); cap(r.Times) != unknownSteps {
			t.Errorf("newResult(steps=%d) reserved %d slots, want %d", steps, cap(r.Times), unknownSteps)
		}
	}
	r := newResult(c, 2, 1, nil)
	for k := 0; k < 3; k++ {
		r.record(float64(k), []float64{float64(k), -float64(k)})
	}
	for k := 0; k < 3; k++ {
		if r.At(k, 0) != float64(k) || r.At(k, 1) != -float64(k) {
			t.Errorf("step %d = %v, %v after growing past the reservation", k, r.At(k, 0), r.At(k, 1))
		}
	}
}
