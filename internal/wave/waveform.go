// Package wave provides piecewise-linear (PWL) voltage waveforms and the
// measurement utilities — level crossings, 50% propagation delay, transition
// (slew) times, and the paper's RMSE metric (Eq. 6) — used throughout the
// mcsm library.
//
// A Waveform is an immutable sampled function of time. Between samples it is
// linearly interpolated; outside the sampled span it is clamped to the first
// or last value (the convention used by SPICE PWL sources).
package wave

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Waveform is a piecewise-linear function of time. T holds strictly
// increasing sample times in seconds and V the corresponding values (volts
// for signal waveforms, amperes when used for currents). The two slices
// always have equal, nonzero length for a valid waveform.
//
// A live view of a Stream (Stream.Waveform) stands for a waveform still
// being recorded: At and Cursor answer from it exactly (waiting for the
// samples a query needs), and Final returns the finished waveform. Every
// method that reads the samples as a whole panics on a live view.
type Waveform struct {
	T []float64
	V []float64

	live *Stream // set on a live view: T and V are a published prefix
}

// New builds a waveform from parallel time/value slices. It returns an error
// when the slices are empty, of different lengths, contain non-finite
// entries, or when times are not strictly increasing. The slices are used
// directly (not copied).
func New(t, v []float64) (Waveform, error) {
	if len(t) == 0 {
		return Waveform{}, errors.New("wave: empty waveform")
	}
	if len(t) != len(v) {
		return Waveform{}, fmt.Errorf("wave: length mismatch: %d times vs %d values", len(t), len(v))
	}
	for i := range t {
		if math.IsNaN(t[i]) || math.IsInf(t[i], 0) || math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			return Waveform{}, fmt.Errorf("wave: non-finite sample at index %d", i)
		}
		if i > 0 && t[i] <= t[i-1] {
			return Waveform{}, fmt.Errorf("wave: times not strictly increasing at index %d (%g after %g)", i, t[i], t[i-1])
		}
	}
	return Waveform{T: t, V: v}, nil
}

// MustNew is like New but panics on invalid input. It is intended for
// compile-time-constant waveforms in tests and examples.
func MustNew(t, v []float64) Waveform {
	w, err := New(t, v)
	if err != nil {
		panic(err)
	}
	return w
}

// Constant returns a flat waveform at value v spanning [t0, t1].
func Constant(v, t0, t1 float64) Waveform {
	if t1 <= t0 {
		t1 = t0 + 1e-18
	}
	return Waveform{T: []float64{t0, t1}, V: []float64{v, v}}
}

// SaturatedRamp returns the canonical STA stimulus: the value holds at v0
// until start, transitions linearly to v1 over the transition time tt
// (0%-to-100% duration), then holds at v1 until end. The waveform spans
// [spanStart, end]; spanStart is min(start, end) clamped below start so the
// initial value is represented.
func SaturatedRamp(v0, v1, start, tt, end float64) Waveform {
	if tt <= 0 {
		tt = 1e-15
	}
	t0 := start
	tend := start + tt
	ts := []float64{t0 - 1e-15, t0, tend}
	vs := []float64{v0, v0, v1}
	if end > tend {
		ts = append(ts, end)
		vs = append(vs, v1)
	}
	return Waveform{T: ts, V: vs}
}

// whole panics on a live view. Every method that reads the samples as a
// whole calls it: a live view's T and V are only a published prefix, so
// such a read would quietly answer for a shorter waveform.
func (w Waveform) whole() {
	if w.live != nil {
		panic("wave: whole-waveform read of a live view; read Final")
	}
}

// Len reports the number of samples.
func (w Waveform) Len() int { w.whole(); return len(w.T) }

// Empty reports whether the waveform has no samples.
func (w Waveform) Empty() bool { w.whole(); return len(w.T) == 0 }

// Start returns the first sample time. It panics on an empty waveform.
func (w Waveform) Start() float64 { w.whole(); return w.T[0] }

// End returns the last sample time. It panics on an empty waveform.
func (w Waveform) End() float64 { w.whole(); return w.T[len(w.T)-1] }

// First returns the first sample value.
func (w Waveform) First() float64 { w.whole(); return w.V[0] }

// Last returns the last sample value.
func (w Waveform) Last() float64 { w.whole(); return w.V[len(w.V)-1] }

// At evaluates the waveform at time t with linear interpolation, clamping to
// the first/last value outside the sampled span. A NaN time reads NaN,
// without waiting on a live view's stream.
func (w Waveform) At(t float64) float64 {
	if t != t {
		return math.NaN()
	}
	if w.live != nil && !w.covers(t) {
		w = w.live.await(t)
	}
	n := len(w.T)
	if n == 0 {
		return 0
	}
	if t <= w.T[0] {
		return w.V[0]
	}
	if t >= w.T[n-1] {
		return w.V[n-1]
	}
	// Binary search for the segment containing t.
	return w.lerp(sort.SearchFloat64s(w.T, t), t)
}

// lerp interpolates on segment i, where w.T[i-1] < t <= w.T[i].
func (w Waveform) lerp(i int, t float64) float64 {
	t0, t1 := w.T[i-1], w.T[i]
	v0, v1 := w.V[i-1], w.V[i]
	frac := (t - t0) / (t1 - t0)
	return v0 + frac*(v1-v0)
}

// Cursor reads a waveform at times that mostly move forward, as a
// transient run's sources do. It remembers the segment of the last
// lookup and walks forward from it, so a run costs one pass over the
// samples instead of one binary search per solve. At returns exactly
// what Waveform.At returns: the walk finds the smallest i with
// T[i] >= t, the index sort.SearchFloat64s finds, and a time before the
// remembered segment (a DC solve, a second run) falls back to the search.
// On a live view it answers as At does, keeping the prefix it last read
// until a query passes it; the segment it remembers stays valid on the
// longer prefix and the final waveform.
type Cursor struct {
	W Waveform
	i int // segment of the last lookup; 0 before the first
}

// At evaluates the cursor's waveform at t like Waveform.At.
func (c *Cursor) At(t float64) float64 {
	if t != t {
		return math.NaN()
	}
	if c.W.live != nil && !c.W.covers(t) {
		c.W = c.W.live.await(t)
	}
	w := c.W
	n := len(w.T)
	if n == 0 {
		return 0
	}
	if t <= w.T[0] {
		return w.V[0]
	}
	if t >= w.T[n-1] {
		return w.V[n-1]
	}
	i := c.i
	if i < 1 || i >= n || w.T[i-1] >= t {
		i = sort.SearchFloat64s(w.T, t)
	} else {
		// w.T[i-1] < t, so the smallest index with T >= t is at or past i;
		// w.T[n-1] > t stops the walk.
		for w.T[i] < t {
			i++
		}
	}
	c.i = i
	return w.lerp(i, t)
}

// Clone returns a deep copy of the waveform.
func (w Waveform) Clone() Waveform {
	w.whole()
	t := make([]float64, len(w.T))
	v := make([]float64, len(w.V))
	copy(t, w.T)
	copy(v, w.V)
	return Waveform{T: t, V: v}
}

// Shifted returns the waveform translated by dt in time.
func (w Waveform) Shifted(dt float64) Waveform {
	out := w.Clone()
	for i := range out.T {
		out.T[i] += dt
	}
	return out
}

// Scaled returns the waveform with all values multiplied by k.
func (w Waveform) Scaled(k float64) Waveform {
	out := w.Clone()
	for i := range out.V {
		out.V[i] *= k
	}
	return out
}

// String renders a short human-readable summary of the waveform.
func (w Waveform) String() string {
	if w.live != nil {
		return "wave{live}"
	}
	if w.Empty() {
		return "wave{}"
	}
	return fmt.Sprintf("wave{%d pts, t=[%.4g,%.4g], v=[%.4g..%.4g]}",
		w.Len(), w.Start(), w.End(), w.First(), w.Last())
}
