package wave

import (
	"math"
	"math/rand"
	"testing"
)

func TestCrossings(t *testing.T) {
	// Triangle: 0 -> 2 -> 0.
	w := MustNew([]float64{0, 1, 2}, []float64{0, 2, 0})
	cs := w.Crossings(1)
	if len(cs) != 2 {
		t.Fatalf("crossings = %d, want 2", len(cs))
	}
	if !cs[0].Rising || math.Abs(cs[0].Time-0.5) > 1e-12 {
		t.Errorf("first crossing %+v", cs[0])
	}
	if cs[1].Rising || math.Abs(cs[1].Time-1.5) > 1e-12 {
		t.Errorf("second crossing %+v", cs[1])
	}
	// Level above waveform: no crossings.
	if got := w.Crossings(3); len(got) != 0 {
		t.Errorf("crossings above peak: %d", len(got))
	}
	// Flat waveform on the level: no crossings.
	flat := MustNew([]float64{0, 1}, []float64{1, 1})
	if got := flat.Crossings(1); len(got) != 0 {
		t.Errorf("flat-on-level crossings: %d", len(got))
	}
}

func TestCrossingExactEndpoint(t *testing.T) {
	// Departs exactly from the level.
	w := MustNew([]float64{0, 1}, []float64{1, 2})
	cs := w.Crossings(1)
	if len(cs) != 1 || !cs[0].Rising || cs[0].Time != 0 {
		t.Errorf("exact endpoint crossing: %+v", cs)
	}
}

func TestCrossTimeDirections(t *testing.T) {
	w := MustNew([]float64{0, 1, 2, 3, 4}, []float64{0, 2, 0, 2, 0})
	tr, ok := w.CrossTime(1, true, 0)
	if !ok || math.Abs(tr-0.5) > 1e-12 {
		t.Errorf("first rising = %g ok=%v", tr, ok)
	}
	tr2, ok := w.CrossTime(1, true, 1.0)
	if !ok || math.Abs(tr2-2.5) > 1e-12 {
		t.Errorf("second rising = %g ok=%v", tr2, ok)
	}
	tf, ok := w.CrossTime(1, false, 0)
	if !ok || math.Abs(tf-1.5) > 1e-12 {
		t.Errorf("first falling = %g ok=%v", tf, ok)
	}
	if _, ok := w.CrossTime(1, true, 10); ok {
		t.Error("found crossing after end")
	}
	if c, ok := w.FirstCross(1); !ok || !c.Rising || math.Abs(c.Time-0.5) > 1e-12 {
		t.Errorf("first crossing = %+v ok=%v", c, ok)
	}
	if c, ok := w.LastCross(1); !ok || c.Rising || math.Abs(c.Time-3.5) > 1e-12 {
		t.Errorf("last crossing = %+v ok=%v", c, ok)
	}
	if _, ok := w.FirstCross(5); ok {
		t.Error("FirstCross found nonexistent crossing")
	}
	if _, ok := w.LastCross(5); ok {
		t.Error("LastCross found nonexistent crossing")
	}
}

func TestDelay50(t *testing.T) {
	vdd := 1.2
	in := SaturatedRamp(0, vdd, 1e-9, 100e-12, 5e-9)
	out := SaturatedRamp(vdd, 0, 1.2e-9, 200e-12, 5e-9)
	d, err := Delay50(in, out, vdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Input crosses 0.6 at 1.05ns; output at 1.3ns -> 250ps.
	if math.Abs(d-250e-12) > 1e-15 {
		t.Errorf("Delay50 = %g, want 250ps", d)
	}
	// Missing crossings produce errors.
	flat := Constant(0, 0, 5e-9)
	if _, err := Delay50(flat, out, vdd, 0); err == nil {
		t.Error("flat input accepted")
	}
	if _, err := Delay50(in, flat, vdd, 0); err == nil {
		t.Error("flat output accepted")
	}
}

func TestOutputCross50(t *testing.T) {
	vdd := 1.2
	out := SaturatedRamp(0, vdd, 2e-9, 100e-12, 5e-9)
	tc, err := OutputCross50(out, vdd, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tc-2.05e-9) > 1e-15 {
		t.Errorf("cross = %g", tc)
	}
	if _, err := OutputCross50(out, vdd, false, 0); err == nil {
		t.Error("falling crossing should not exist")
	}
}

func TestTransitionTime(t *testing.T) {
	vdd := 1.0
	// Perfect ramp 0->1 over 100ps: 10-90 slew is 80ps.
	w := SaturatedRamp(0, vdd, 0, 100e-12, 1e-9)
	s, err := TransitionTime(w, vdd, true, 0.1, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-80e-12) > 1e-15 {
		t.Errorf("rising slew = %g, want 80ps", s)
	}
	f := SaturatedRamp(vdd, 0, 0, 100e-12, 1e-9)
	s2, err := TransitionTime(f, vdd, false, 0.1, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2-80e-12) > 1e-15 {
		t.Errorf("falling slew = %g, want 80ps", s2)
	}
	if _, err := TransitionTime(w, vdd, true, 0.9, 0.1, 0); err == nil {
		t.Error("inverted fractions accepted")
	}
	if _, err := TransitionTime(w, vdd, false, 0.1, 0.9, 0); err == nil {
		t.Error("absent falling transition accepted")
	}
}

func TestRMSE(t *testing.T) {
	a := Constant(1, 0, 1)
	b := Constant(0, 0, 1)
	if got := RMSE(a, b, 0, 1, 101); math.Abs(got-1) > 1e-12 {
		t.Errorf("RMSE of unit offset = %g", got)
	}
	if got := RMSE(a, a, 0, 1, 101); got != 0 {
		t.Errorf("RMSE of identical = %g", got)
	}
	// Degenerate windows return 0.
	if got := RMSE(a, b, 1, 0, 101); got != 0 {
		t.Errorf("RMSE inverted window = %g", got)
	}
	if got := RMSE(a, b, 0, 1, 1); got != 0 {
		t.Errorf("RMSE n=1 = %g", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := MustNew([]float64{0, 1, 2}, []float64{0, 1, 0})
	b := Constant(0, 0, 2)
	d, at := MaxAbsDiff(a, b, 0, 2, 201)
	if math.Abs(d-1) > 1e-9 || math.Abs(at-1) > 0.02 {
		t.Errorf("MaxAbsDiff = %g at %g", d, at)
	}
}

func TestExtremumAndPeak(t *testing.T) {
	w := MustNew([]float64{0, 1, 2, 3}, []float64{0, 3, -1, 0})
	min, max := w.Extremum(0, 3)
	if min != -1 || max != 3 {
		t.Errorf("Extremum = (%g,%g)", min, max)
	}
	// Window excluding the peak.
	_, max2 := w.Extremum(1.5, 3)
	if max2 >= 3 {
		t.Errorf("windowed max = %g should exclude peak", max2)
	}
	p, at := w.PeakValue(0, 3)
	if p != 3 || at != 1 {
		t.Errorf("PeakValue = %g at %g", p, at)
	}
}

// TestCrossTimeScanOracle: CrossTime and firstCrossAnyDir scan segment by
// segment and return at their first match; the answer must be the first
// matching element of the Crossings list, bit for bit. The waveforms
// step on a coarse value lattice, so samples land exactly on the level
// and flat segments (on the level and off it) are common.
func TestCrossTimeScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	bits := math.Float64bits
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		ts := make([]float64, n)
		vs := make([]float64, n)
		for i := range ts {
			ts[i] = float64(i)*1e-11 + rng.Float64()*1e-12
			vs[i] = float64(rng.Intn(5)) * 0.3
		}
		w := MustNew(ts, vs)
		level := float64(rng.Intn(5)) * 0.3
		if rng.Intn(3) == 0 {
			level = rng.Float64() * 1.2
		}
		after := ts[0] + rng.Float64()*float64(n)*1e-11
		if rng.Intn(4) == 0 {
			after = ts[rng.Intn(n)] // on a sample, where ties decide
		}
		cs := w.Crossings(level)
		for _, rising := range []bool{true, false} {
			var want float64
			found := false
			for _, c := range cs {
				if c.Rising == rising && c.Time >= after {
					want, found = c.Time, true
					break
				}
			}
			got, ok := w.CrossTime(level, rising, after)
			if ok != found || bits(got) != bits(want) {
				t.Fatalf("trial %d: CrossTime(%g, %v, %g) on %v = (%v, %v), Crossings say (%v, %v)",
					trial, level, rising, after, vs, got, ok, want, found)
			}
		}
		var want float64
		found := false
		for _, c := range cs {
			if c.Time >= after {
				want, found = c.Time, true
				break
			}
		}
		got, ok := firstCrossAnyDir(w, level, after)
		if ok != found || bits(got) != bits(want) {
			t.Fatalf("trial %d: firstCrossAnyDir(%g, %g) on %v = (%v, %v), Crossings say (%v, %v)",
				trial, level, after, vs, got, ok, want, found)
		}
	}
}

// TestFirstLastCrossOracle: FirstCross and LastCross scan segment by
// segment and return at their first match; each answer must be the
// first or last element of the Crossings list, bit for bit. The
// waveforms step on a coarse value lattice, so samples land exactly on
// the level and flat segments (on the level and off it) are common.
func TestFirstLastCrossOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bits := math.Float64bits
	same := func(got Crossing, ok bool, want []Crossing, k int) bool {
		if len(want) == 0 {
			return !ok
		}
		return ok && got.Rising == want[k].Rising && bits(got.Time) == bits(want[k].Time)
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		ts := make([]float64, n)
		vs := make([]float64, n)
		for i := range ts {
			ts[i] = float64(i)*1e-11 + rng.Float64()*1e-12
			vs[i] = float64(rng.Intn(5)) * 0.3
		}
		w := MustNew(ts, vs)
		level := float64(rng.Intn(5)) * 0.3
		if rng.Intn(3) == 0 {
			level = rng.Float64() * 1.2
		}
		cs := w.Crossings(level)
		if c, ok := w.FirstCross(level); !same(c, ok, cs, 0) {
			t.Fatalf("trial %d: FirstCross(%g) on %v = (%+v, %v), Crossings say %+v", trial, level, vs, c, ok, cs)
		}
		if c, ok := w.LastCross(level); !same(c, ok, cs, len(cs)-1) {
			t.Fatalf("trial %d: LastCross(%g) on %v = (%+v, %v), Crossings say %+v", trial, level, vs, c, ok, cs)
		}
	}
}
