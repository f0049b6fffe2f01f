package wave

import (
	"math"
	"testing"
	"testing/quick"
)

// integral is the running trapezoidal integral ∫v dt of w on w's grid,
// starting at zero: the inverse the derivative round trip checks
// Derivative against.
func integral(w Waveform) Waveform {
	n := w.Len()
	if n == 0 {
		return Waveform{}
	}
	vs := make([]float64, n)
	var acc float64
	for k := 1; k < n; k++ {
		acc += 0.5 * (w.V[k] + w.V[k-1]) * (w.T[k] - w.T[k-1])
		vs[k] = acc
	}
	return Waveform{T: append([]float64(nil), w.T...), V: vs}
}

func TestDerivativeOfRamp(t *testing.T) {
	// Linear ramp 0→1 over 1s sampled at 11 points: derivative 1 everywhere.
	ts := make([]float64, 11)
	vs := make([]float64, 11)
	for i := range ts {
		ts[i] = float64(i) / 10
		vs[i] = ts[i]
	}
	d := MustNew(ts, vs).Derivative()
	if d.Len() != 9 {
		t.Fatalf("derivative samples = %d", d.Len())
	}
	for i := range d.V {
		if math.Abs(d.V[i]-1) > 1e-12 {
			t.Errorf("d[%d] = %g, want 1", i, d.V[i])
		}
	}
	// Degenerate inputs.
	if got := MustNew([]float64{0, 1}, []float64{0, 1}).Derivative(); !got.Empty() {
		t.Error("2-sample derivative should be empty")
	}
}

func TestIntegralOfConstant(t *testing.T) {
	w := Constant(2, 0, 3)
	in := integral(w)
	if got := in.Last(); math.Abs(got-6) > 1e-12 {
		t.Errorf("∫2 dt over 3s = %g, want 6", got)
	}
	if got := in.First(); got != 0 {
		t.Errorf("integral must start at 0, got %g", got)
	}
	if got := integral(Waveform{}); !got.Empty() {
		t.Error("integral of empty not empty")
	}
}

func TestEnergy(t *testing.T) {
	// v = 1 over 2s → energy 2.
	if got := Constant(1, 0, 2).Energy(); math.Abs(got-2) > 1e-12 {
		t.Errorf("energy = %g, want 2", got)
	}
}

// Property: the derivative of the integral reproduces the original values
// (interior samples, smooth inputs).
func TestQuickDerivativeIntegralRoundtrip(t *testing.T) {
	f := func(a, b, c float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			return math.Mod(x, 3)
		}
		a, b, c = clamp(a), clamp(b), clamp(c)
		n := 101
		ts := make([]float64, n)
		vs := make([]float64, n)
		for i := range ts {
			x := float64(i) / float64(n-1)
			ts[i] = x
			vs[i] = a + b*x + c*x*x
		}
		w := MustNew(ts, vs)
		back := integral(w).Derivative()
		for i := range back.T {
			want := w.At(back.T[i])
			// Trapezoid + central difference is 2nd order: tolerance scales
			// with the quadratic coefficient and h².
			if math.Abs(back.V[i]-want) > 1e-3*(1+math.Abs(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDerivativeSkipsDegenerateSpacing: central differences over a raw
// sample triple with coincident outer times (unreachable through New,
// which enforces strictly increasing times, but constructible by direct
// struct use) must skip the degenerate point instead of dividing by zero.
func TestDerivativeSkipsDegenerateSpacing(t *testing.T) {
	w := Waveform{T: []float64{0, 0, 0, 1, 2}, V: []float64{0, 1, 2, 3, 4}}
	d := w.Derivative()
	for i, v := range d.V {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("sample %d: non-finite derivative %g", i, v)
		}
	}
	if d.Len() != 2 { // interior points k=2 (dt=1) and k=3 (dt=2) survive
		t.Errorf("len = %d, want 2", d.Len())
	}
}

// TestIntegralNonUniformGrid pins the trapezoid rule on an uneven grid:
// ∫ of v(t)=t over [0,3] sampled at {0,1,3} is exactly 4.5.
func TestIntegralNonUniformGrid(t *testing.T) {
	w := MustNew([]float64{0, 1, 3}, []float64{0, 1, 3})
	in := integral(w)
	if got := in.V[in.Len()-1]; math.Abs(got-4.5) > 1e-12 {
		t.Errorf("integral end = %g, want 4.5", got)
	}
	if in.V[0] != 0 {
		t.Errorf("integral must start at zero, got %g", in.V[0])
	}
}

// TestEnergyEdgeCases: empty and single-sample waveforms carry no energy.
func TestEnergyEdgeCases(t *testing.T) {
	if got := (Waveform{}).Energy(); got != 0 {
		t.Errorf("empty energy = %g", got)
	}
	if got := (Waveform{T: []float64{1}, V: []float64{5}}).Energy(); got != 0 {
		t.Errorf("single-sample energy = %g", got)
	}
}
