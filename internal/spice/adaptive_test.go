package spice

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mcsm/internal/device"
	"mcsm/internal/wave"
)

// runAdaptive runs e from its DC point at start under NewAdaptive's step
// control.
func runAdaptive(e *Engine, start, stop float64, opt AdaptiveOptions, keep ...int) (*Result, error) {
	g, err := NewAdaptive(start, stop, opt)
	if err != nil {
		return nil, err
	}
	x0, err := e.DCAt(start)
	if err != nil {
		return nil, err
	}
	return e.RunFrom(x0, g, nil, keep...)
}

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
	res, err := runAdaptive(e, 0, 10e-9, opt)
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
	ad, err := runAdaptive(eAd, 0, 3e-9, DefaultAdaptive())
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
	build := func() *Engine {
		c := NewCircuit()
		n := c.Node("n")
		c.AddVSource("V", n, Ground, DC(1))
		c.AddResistor("R", n, c.Node("out"), 1e3)
		c.AddCapacitor("C", c.Node("out"), Ground, 1e-12)
		return NewEngine(c, DefaultOptions())
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
		o := opt
		o.DtInit = tc.init
		res, err := runAdaptive(build(), 0, 1e-9, o)
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
	opt := DefaultAdaptive()
	opt.DtMin = 0.5e-12
	opt.DtMax = 500e-12
	opt.MaxDV = 0.05
	opt.DtInit = 500e-12 // the input finishes its swing inside one such step
	res, err := runAdaptive(e, 0, 3e-9, opt)
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
	if _, err := NewAdaptive(0, -1, DefaultAdaptive()); err == nil {
		t.Error("negative window accepted")
	}
	bad := DefaultAdaptive()
	bad.DtMin = 0
	if _, err := NewAdaptive(0, 1e-9, bad); err == nil {
		t.Error("zero DtMin accepted")
	}
	bad = DefaultAdaptive()
	bad.DtMax = bad.DtMin / 2
	if _, err := NewAdaptive(0, 1e-9, bad); err == nil {
		t.Error("DtMax below DtMin accepted")
	}
	// A NaN or infinite window end or option fails as FixedSteps fails
	// on a NaN step or window. A NaN DtMin or stop used to return a
	// one-point record, and a NaN DtMax or DtInit an uncapped or NaN step.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		fields := map[string]func(start, stop *float64, o *AdaptiveOptions){
			"start":  func(start, _ *float64, _ *AdaptiveOptions) { *start = v },
			"stop":   func(_, stop *float64, _ *AdaptiveOptions) { *stop = v },
			"DtMin":  func(_, _ *float64, o *AdaptiveOptions) { o.DtMin = v },
			"DtMax":  func(_, _ *float64, o *AdaptiveOptions) { o.DtMax = v },
			"MaxDV":  func(_, _ *float64, o *AdaptiveOptions) { o.MaxDV = v },
			"DtInit": func(_, _ *float64, o *AdaptiveOptions) { o.DtInit = v },
		}
		for name, set := range fields {
			start, stop, opt := 0.0, 1e-9, DefaultAdaptive()
			set(&start, &stop, &opt)
			if _, err := NewAdaptive(start, stop, opt); err == nil || err.Error() != "spice: invalid adaptive window/steps" {
				t.Errorf("%s = %v: NewAdaptive error %v, want the invalid window/steps error", name, v, err)
			}
		}
	}
	c := NewCircuit()
	n := c.Node("n")
	c.AddVSource("V", n, Ground, DC(1))
	e := NewEngine(c, DefaultOptions())
	g, err := NewAdaptive(0, 1e-9, DefaultAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunFrom([]float64{1}, g, nil); err == nil {
		t.Error("wrong-size state accepted")
	}
}

// TestAdaptiveStepBound: an adaptive run fails once it has taken
// MaxSteps steps, naming the bound, as a fixed-step run that needs more
// never starts. DtMin = DtMax = 1 fs over 1.1 ns needs 1.1·10⁶.
func TestAdaptiveStepBound(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("V1", in, Ground, wave.SaturatedRamp(0, 1, 0.1e-9, 0.1e-9, 2e-9))
	c.AddResistor("R", in, out, 1e3)
	c.AddCapacitor("C", out, Ground, 1e-12)
	e := NewEngine(c, DefaultOptions())
	opt := AdaptiveOptions{DtMin: 1e-15, DtMax: 1e-15}
	res, err := runAdaptive(e, 0, 1.1e-9, opt, int(out)-1)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxSteps)) {
		t.Fatalf("err = %v, want the %d-step bound", err, MaxSteps)
	}
	if res.Steps() != MaxSteps+1 {
		t.Errorf("the failed run recorded %d points, want %d", res.Steps(), MaxSteps+1)
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

// TestAdaptivePublishKeep: an adaptive run that keeps one unknown and
// publishes records that unknown bit for bit as a full, unpublished run
// does, publishing after every PublishEvery steps; and each published
// prefix still holds the final samples after the record has doubled out
// of the storage it was published from.
func TestAdaptivePublishKeep(t *testing.T) {
	full, out := buildInverter(DefaultOptions())
	oi := int(out) - 1
	x0, err := full.DCAt(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewAdaptive(0, 3e-9, DefaultAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.RunFrom(x0, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildInverter(DefaultOptions())
	var pubs []wave.Waveform
	got, err := e.RunFrom(x0, g, func(r *Result) { pubs = append(pubs, r.Wave(out)) }, oi)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps() != want.Steps() || got.Steps() <= 2*unknownSteps {
		t.Fatalf("run recorded %d points, the full run %d; want the same, more than %d", got.Steps(), want.Steps(), 2*unknownSteps)
	}
	sameRecordPrefix(t, got, want, []int{oi})
	if len(pubs) != (got.Steps()-1)/PublishEvery {
		t.Errorf("published %d times, want %d", len(pubs), (got.Steps()-1)/PublishEvery)
	}
	final := got.Wave(out)
	for i, p := range pubs {
		if p.Len() != (i+1)*PublishEvery+1 {
			t.Fatalf("publication %d held %d points, want %d", i, p.Len(), (i+1)*PublishEvery+1)
		}
		for k := range p.V {
			if math.Float64bits(p.T[k]) != math.Float64bits(final.T[k]) || math.Float64bits(p.V[k]) != math.Float64bits(final.V[k]) {
				t.Fatalf("publication %d, point %d: (%v, %v), final (%v, %v)", i, k, p.T[k], p.V[k], final.T[k], final.V[k])
			}
		}
	}
}
