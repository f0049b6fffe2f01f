package spice

import (
	"math"
	"testing"

	"mcsm/internal/device"
	"mcsm/internal/wave"
)

func TestAdaptiveRCMatchesAnalytic(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("V1", in, Ground, wave.SaturatedRamp(0, 1, 1e-12, 1e-12, 20e-9))
	c.AddResistor("R", in, out, 1e3)
	c.AddCapacitor("C", out, Ground, 1e-12)
	e := NewEngine(c, DefaultOptions())
	opt := DefaultAdaptive()
	opt.DtMax = 200e-12
	res, err := e.RunAdaptive(0, 10e-9, opt)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Wave(out)
	for _, tt := range []float64{0.5e-9, 1e-9, 2e-9, 5e-9} {
		want := 1 - math.Exp(-(tt-2e-12)/1e-9)
		if got := w.At(tt); math.Abs(got-want) > 0.02 {
			t.Errorf("adaptive RC at %g: %g want %g", tt, got, want)
		}
	}
	// Must take far fewer steps than fixed 1 ps stepping (10000 steps).
	if res.Steps() > 3000 {
		t.Errorf("adaptive used %d steps, expected large savings", res.Steps())
	}
	t.Logf("adaptive RC: %d steps (fixed 1ps would use 10000)", res.Steps())
}

func TestAdaptiveInverterMatchesFixed(t *testing.T) {
	np := device.N130()
	pp := device.P130()
	build := func() (*Engine, Node) {
		c := NewCircuit()
		vdd := c.Node("vdd")
		in := c.Node("in")
		out := c.Node("out")
		c.AddVSource("VDD", vdd, Ground, DC(1.2))
		c.AddVSource("VIN", in, Ground, wave.SaturatedRamp(0, 1.2, 0.5e-9, 80e-12, 3e-9))
		c.AddMOS("MN", out, in, Ground, Ground, &np, 0.2e-6)
		c.AddMOS("MP", out, in, vdd, vdd, &pp, 0.4e-6)
		c.AddCapacitor("CL", out, Ground, 5e-15)
		return NewEngine(c, DefaultOptions()), out
	}

	eFixed, outF := build()
	fixed, err := eFixed.Run(0, 3e-9, 0.5e-12)
	if err != nil {
		t.Fatal(err)
	}
	eAd, outA := build()
	ad, err := eAd.RunAdaptive(0, 3e-9, DefaultAdaptive())
	if err != nil {
		t.Fatal(err)
	}

	wF := fixed.Wave(outF)
	wA := ad.Wave(outA)
	tF, ok1 := wF.CrossTime(0.6, false, 0)
	tA, ok2 := wA.CrossTime(0.6, false, 0)
	if !ok1 || !ok2 {
		t.Fatal("missing output crossings")
	}
	if d := math.Abs(tF - tA); d > 1.5e-12 {
		t.Errorf("adaptive vs fixed 50%% crossing differ by %.2fps", d*1e12)
	}
	if ad.Steps() >= fixed.Steps()/3 {
		t.Errorf("adaptive %d steps vs fixed %d: insufficient savings", ad.Steps(), fixed.Steps())
	}
	rmse := wave.RMSE(wF, wA, 0, 3e-9, 2000)
	if rmse > 0.01 {
		t.Errorf("adaptive vs fixed RMSE %.4f V", rmse)
	}
	t.Logf("adaptive %d steps vs fixed %d; crossing diff %.2fps; RMSE %.2gmV",
		ad.Steps(), fixed.Steps(), math.Abs(tF-tA)*1e12, rmse*1e3)
}

// TestAdaptiveDtInitSeeding pins the warm-start step seeding: on a quiet
// circuit the very first step is exactly DtInit, out-of-range seeds clamp
// to [DtMin, DtMax], and zero keeps the historical DtMin·4 default.
func TestAdaptiveDtInitSeeding(t *testing.T) {
	build := func() (*Engine, []float64) {
		c := NewCircuit()
		n := c.Node("n")
		c.AddVSource("V", n, Ground, DC(1))
		c.AddResistor("R", n, c.Node("out"), 1e3)
		c.AddCapacitor("C", c.Node("out"), Ground, 1e-12)
		e := NewEngine(c, DefaultOptions())
		x0, err := e.DCAt(0)
		if err != nil {
			t.Fatal(err)
		}
		return e, x0
	}
	opt := DefaultAdaptive()
	opt.DtMin = 1e-12
	opt.DtMax = 100e-12
	cases := []struct {
		init, want float64
	}{
		{0, 4e-12},         // default DtMin·4
		{25e-12, 25e-12},   // used as-is
		{0.1e-12, 1e-12},   // clamped up to DtMin
		{900e-12, 100e-12}, // clamped down to DtMax
	}
	for _, tc := range cases {
		e, x0 := build()
		o := opt
		o.DtInit = tc.init
		res, err := e.RunAdaptiveFrom(x0, 0, 1e-9, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Times) < 2 {
			t.Fatal("no steps recorded")
		}
		got := res.Times[1] - res.Times[0]
		if math.Abs(got-tc.want) > tc.want*1e-9 {
			t.Errorf("DtInit=%g: first step %g, want %g", tc.init, got, tc.want)
		}
	}
}

// TestAdaptiveStepRejection drives an RC into a fast transition with a
// deliberately huge seeded step: the ΔV criterion must reject and shrink it
// rather than record a coarse first step.
func TestAdaptiveStepRejection(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("V1", in, Ground, wave.SaturatedRamp(0, 1, 10e-12, 5e-12, 5e-9))
	c.AddResistor("R", in, out, 1e3)
	c.AddCapacitor("C", out, Ground, 1e-12)
	e := NewEngine(c, DefaultOptions())
	x0, err := e.DCAt(0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultAdaptive()
	opt.DtMin = 0.5e-12
	opt.DtMax = 500e-12
	opt.MaxDV = 0.05
	opt.DtInit = 500e-12 // the input finishes its swing inside one such step
	res, err := e.RunAdaptiveFrom(x0, 0, 3e-9, opt)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Times[1] - res.Times[0]
	if first > opt.DtInit/2 {
		t.Errorf("first step %g was not rejected (seed %g, MaxDV %g)", first, opt.DtInit, opt.MaxDV)
	}
	// The accepted trajectory must still respect the ΔV bound away from the
	// minimum-step floor.
	w := res.Wave(out)
	for i := 1; i < len(res.Times); i++ {
		dv := math.Abs(w.V[i] - w.V[i-1])
		dt := res.Times[i] - res.Times[i-1]
		if dv > opt.MaxDV*1.0001 && dt > opt.DtMin*1.0001 {
			t.Errorf("step %d: ΔV %.3g at dt %.3g violates MaxDV", i, dv, dt)
		}
	}
}

func TestAdaptiveValidation(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddVSource("V", n, Ground, DC(1))
	e := NewEngine(c, DefaultOptions())
	if _, err := e.RunAdaptive(0, -1, DefaultAdaptive()); err == nil {
		t.Error("negative window accepted")
	}
	bad := DefaultAdaptive()
	bad.DtMin = 0
	if _, err := e.RunAdaptive(0, 1e-9, bad); err == nil {
		t.Error("zero DtMin accepted")
	}
	if _, err := e.RunAdaptiveFrom([]float64{1}, 0, 1e-9, DefaultAdaptive()); err == nil {
		t.Error("wrong-size state accepted")
	}
}

// TestSwitchingEnergy validates the engine's charge bookkeeping: the energy
// the supply delivers while an inverter charges its load is E = Ctot·Vdd²
// (half stored, half dissipated). With the device's own output parasitics
// alongside CL, the measured energy must land between CL·Vdd² and ≈2× that.
func TestSwitchingEnergy(t *testing.T) {
	np := device.N130()
	pp := device.P130()
	vdd := 1.2
	cl := 10e-15
	c := NewCircuit()
	vddN := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	vsup := c.AddVSource("VDD", vddN, Ground, DC(vdd))
	// Input falls → output rises → supply delivers the switching energy.
	c.AddVSource("VIN", in, Ground, wave.SaturatedRamp(vdd, 0, 0.5e-9, 80e-12, 4e-9))
	c.AddMOS("MN", out, in, Ground, Ground, &np, 0.2e-6)
	c.AddMOS("MP", out, in, vddN, vddN, &pp, 0.4e-6)
	c.AddCapacitor("CL", out, Ground, cl)
	e := NewEngine(c, DefaultOptions())
	res, err := e.Run(0, 4e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	energy := supplyEnergy(res, vsup, 0.4e-9, 3.5e-9)
	ideal := cl * vdd * vdd
	if energy < ideal || energy > 2.5*ideal {
		t.Errorf("switching energy %.3g J outside [%.3g, %.3g] (CL·Vdd² bookkeeping broken)",
			energy, ideal, 2.5*ideal)
	}
	t.Logf("switching energy %.3g J vs CL·Vdd² = %.3g J", energy, ideal)
}

// supplyEnergy integrates the energy a voltage source delivers over
// [t0, t1]: E = ∫ V·(−I) dt, with I the branch current into the source
// (so a delivering supply has negative I and positive energy).
func supplyEnergy(r *Result, v *VSource, t0, t1 float64) float64 {
	iw := r.AuxWave(v.AuxIndex())
	var e float64
	for k := 1; k < len(iw.T); k++ {
		tm := 0.5 * (iw.T[k] + iw.T[k-1])
		if tm < t0 || tm > t1 {
			continue
		}
		im := 0.5 * (iw.V[k] + iw.V[k-1])
		e += -v.Value(tm) * im * (iw.T[k] - iw.T[k-1])
	}
	return e
}
