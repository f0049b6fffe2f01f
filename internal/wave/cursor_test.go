package wave

import (
	"math"
	"math/rand"
	"testing"
)

// TestCursorMatchesAt: a Cursor returns Waveform.At's value bit for bit
// on forward sweeps with small and large strides, repeated times, exact
// sample times, times outside the span, and backward jumps (a DC solve
// or a second run restarting at the window start).
func TestCursorMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		ts, vs := make([]float64, n), make([]float64, n)
		x := rng.NormFloat64() * 1e-9
		for k := range ts {
			ts[k], vs[k] = x, rng.NormFloat64()
			x += 1e-12 + rng.ExpFloat64()*3e-10
		}
		w := MustNew(ts, vs)
		c := &Cursor{W: w}
		lo, hi := ts[0]-2e-10, ts[n-1]+2e-10
		tm := lo
		for q := 0; q < 400; q++ {
			switch r := rng.Intn(20); {
			case r < 12: // forward step, a transient's next solve
				tm += rng.ExpFloat64() * (hi - lo) / 40
			case r < 15: // the same time again (Newton iterations)
			case r < 17: // an exact sample time
				tm = ts[rng.Intn(n)]
			case r < 19: // back to the window start: a second run
				tm = lo + rng.Float64()*(hi-lo)/8
			default: // anywhere, forward or back
				tm = lo + rng.Float64()*(hi-lo)
			}
			if got, want := c.At(tm), w.At(tm); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: Cursor.At(%g) = %v, Waveform.At %v", trial, tm, got, want)
			}
			if tm > hi {
				tm = lo
			}
		}
	}
	var empty Cursor
	if v := empty.At(1); v != 0 {
		t.Errorf("empty cursor At = %v, want 0", v)
	}
}
