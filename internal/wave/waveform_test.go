package wave

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty waveform accepted")
	}
	if _, err := New([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := New([]float64{0, 0}, []float64{0, 1}); err == nil {
		t.Error("non-increasing times accepted")
	}
	if _, err := New([]float64{0, math.NaN()}, []float64{0, 1}); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := New([]float64{0, 1}, []float64{0, math.Inf(1)}); err == nil {
		t.Error("Inf value accepted")
	}
	w, err := New([]float64{0, 1, 2}, []float64{0, 1, 0})
	if err != nil {
		t.Fatalf("valid waveform rejected: %v", err)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d", w.Len())
	}
}

func TestAtInterpolationAndClamping(t *testing.T) {
	w := MustNew([]float64{1, 2, 4}, []float64{0, 2, 0})
	cases := []struct{ t, want float64 }{
		{0.5, 0}, // clamp before start
		{1, 0},   // exact sample
		{1.5, 1}, // mid-segment
		{2, 2},   // exact sample
		{3, 1},   // mid-segment, downward
		{4, 0},   // last sample
		{10, 0},  // clamp after end
		{1.25, 0.5},
	}
	for _, c := range cases {
		if got := w.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestSaturatedRamp(t *testing.T) {
	w := SaturatedRamp(0, 1.2, 1e-9, 100e-12, 3e-9)
	if v := w.At(0.5e-9); v != 0 {
		t.Errorf("before ramp: %g", v)
	}
	if v := w.At(1.05e-9); math.Abs(v-0.6) > 1e-9 {
		t.Errorf("mid ramp: %g, want 0.6", v)
	}
	if v := w.At(2e-9); v != 1.2 {
		t.Errorf("after ramp: %g", v)
	}
	if w.End() != 3e-9 {
		t.Errorf("End = %g", w.End())
	}
	// Falling ramp.
	f := SaturatedRamp(1.2, 0, 1e-9, 100e-12, 3e-9)
	if v := f.At(1.05e-9); math.Abs(v-0.6) > 1e-9 {
		t.Errorf("falling mid ramp: %g", v)
	}
}

func TestShiftScaleOffset(t *testing.T) {
	w := MustNew([]float64{0, 1}, []float64{0, 2})
	s := w.Shifted(10)
	if s.Start() != 10 || s.End() != 11 {
		t.Errorf("Shifted span [%g,%g]", s.Start(), s.End())
	}
	if got := w.Scaled(3).At(1); got != 6 {
		t.Errorf("Scaled = %g", got)
	}
	// Original untouched.
	if w.At(1) != 2 || w.Start() != 0 {
		t.Error("ops mutated the original")
	}
}

// Property: At is always within the [min,max] of the neighboring samples
// (linear interpolation cannot overshoot), and shifting the waveform shifts
// every evaluation point identically.
func TestQuickShiftInvariance(t *testing.T) {
	f := func(rawT [8]float64, rawV [8]float64, q float64, dt float64) bool {
		// Build a strictly increasing, finite time base from rawT.
		ts := make([]float64, 0, 8)
		vs := make([]float64, 0, 8)
		cur := 0.0
		for i := 0; i < 8; i++ {
			step := math.Abs(rawT[i])
			if math.IsNaN(step) || math.IsInf(step, 0) || step > 1e6 {
				step = 1
			}
			cur += step + 1e-6
			v := rawV[i]
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				v = 0
			}
			ts = append(ts, cur)
			vs = append(vs, v)
		}
		w, err := New(ts, vs)
		if err != nil {
			return false
		}
		if math.IsNaN(q) || math.IsInf(q, 0) || math.Abs(q) > 1e6 {
			q = 0.5
		}
		if math.IsNaN(dt) || math.IsInf(dt, 0) || math.Abs(dt) > 1e6 {
			dt = 1
		}
		tq := ts[0] + math.Mod(math.Abs(q), ts[len(ts)-1]-ts[0]+1)
		a := w.At(tq)
		b := w.Shifted(dt).At(tq + dt)
		return math.Abs(a-b) < 1e-6*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: linear interpolation is bounded by sample extremes.
func TestQuickInterpolationBounds(t *testing.T) {
	f := func(rawV [6]float64, q float64) bool {
		ts := []float64{0, 1, 2, 3, 4, 5}
		vs := make([]float64, 6)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range rawV {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			v = math.Mod(v, 100)
			vs[i] = v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		w := MustNew(ts, vs)
		tq := math.Mod(math.Abs(q), 7) - 1 // may fall outside [0,5] to exercise clamping
		got := w.At(tq)
		return got >= lo-1e-12 && got <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := (Waveform{}).String(); got != "wave{}" {
		t.Errorf("empty String = %q", got)
	}
	w := MustNew([]float64{0, 1}, []float64{0, 2})
	if got := w.String(); got == "" {
		t.Error("String empty")
	}
}
