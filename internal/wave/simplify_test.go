package wave

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimplifiedRamp(t *testing.T) {
	// A densely sampled perfect ramp collapses to its corner points.
	ramp := SaturatedRamp(0, 1.2, 1e-9, 100e-12, 4e-9)
	ts := make([]float64, 4001)
	vs := make([]float64, len(ts))
	for i := range ts {
		ts[i] = float64(i) * 1e-12
		vs[i] = ramp.At(ts[i])
	}
	w := MustNew(ts, vs)
	s := w.Simplified(1e-6)
	if s.Len() > 8 {
		t.Errorf("ramp simplified to %d points, want ≤ 8", s.Len())
	}
	// Reconstruction stays within tolerance.
	d, _ := MaxAbsDiff(w, s, 0, 4e-9, 4001)
	if d > 1e-5 {
		t.Errorf("simplified ramp deviates by %g", d)
	}
}

func TestSimplifiedSine(t *testing.T) {
	n := 2001
	ts := make([]float64, n)
	vs := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 1e-12
		vs[i] = 0.6 + 0.6*math.Sin(2*math.Pi*float64(i)/500)
	}
	w := MustNew(ts, vs)
	s := w.Simplified(5e-3)
	if s.Len() >= n/10 {
		t.Errorf("sine simplified to %d of %d points — insufficient compression", s.Len(), n)
	}
	d, _ := MaxAbsDiff(w, s, ts[0], ts[n-1], 5000)
	if d > 5.5e-3 {
		t.Errorf("simplified sine deviates by %g > tol", d)
	}
	t.Logf("sine: %d → %d points at 5mV tolerance", n, s.Len())
}

func TestSimplifiedDegenerate(t *testing.T) {
	w := MustNew([]float64{0, 1}, []float64{0, 1})
	if got := w.Simplified(0.1); got.Len() != 2 {
		t.Errorf("2-point waveform changed: %d", got.Len())
	}
	if got := w.Simplified(0); got.Len() != 2 {
		t.Errorf("zero tolerance changed: %d", got.Len())
	}
}

// Property: the simplified waveform always honors the tolerance and always
// keeps the endpoints.
func TestQuickSimplifyTolerance(t *testing.T) {
	f := func(raw [24]float64, tolRaw float64) bool {
		n := len(raw)
		ts := make([]float64, n)
		vs := make([]float64, n)
		for i := range raw {
			ts[i] = float64(i)
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vs[i] = math.Mod(v, 10)
		}
		w := MustNew(ts, vs)
		tol := 0.01 + math.Abs(math.Mod(tolRaw, 2))
		s := w.Simplified(tol)
		if s.First() != w.First() || s.Last() != w.Last() ||
			s.Start() != w.Start() || s.End() != w.End() {
			return false
		}
		d, _ := MaxAbsDiff(w, s, w.Start(), w.End(), 500)
		return d <= tol*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
