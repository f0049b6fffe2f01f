package wave

import (
	"errors"
	"fmt"
	"math"
)

// Crossing records a waveform passing through a voltage level.
type Crossing struct {
	Time   float64 // interpolated crossing instant, seconds
	Rising bool    // true when the waveform moves upward through the level
}

// Crossings returns every instant at which the waveform crosses the given
// level, in time order. Samples exactly on the level are attributed to the
// segment that departs from it; flat segments on the level produce no
// crossing.
func (w Waveform) Crossings(level float64) []Crossing {
	var out []Crossing
	for c, i, ok := w.nextCross(level, 1); ok; c, i, ok = w.nextCross(level, i) {
		out = append(out, c)
	}
	return out
}

// nextCross returns the first crossing of level on segment i or later
// (segment i joins samples i-1 and i) and the segment after it. Each
// segment decides from its own two samples alone, so a prefix of the
// samples yields a prefix of the crossings, and a scan that stops at its
// first match returns the element Crossings would.
func (w Waveform) nextCross(level float64, i int) (Crossing, int, bool) {
	return w.scanCross(level, i, 1)
}

// scanCross walks the segments from i in steps of step (1 forward, −1
// backward) and returns the first crossing of level it meets and the
// segment after it in the walk. A segment holds at most one crossing.
func (w Waveform) scanCross(level float64, i, step int) (Crossing, int, bool) {
	w.whole()
	for ; i >= 1 && i < len(w.T); i += step {
		v0, v1 := w.V[i-1], w.V[i]
		if v0 == v1 {
			continue
		}
		// A segment crosses when the level lies strictly between the
		// endpoint values, or coincides with the leaving endpoint.
		lo, hi := math.Min(v0, v1), math.Max(v0, v1)
		if level <= lo || level > hi {
			// Allow the exact-left-endpoint case: v0 == level and segment
			// departs — count it as a crossing at the segment start.
			if v0 == level && v1 != level {
				return Crossing{Time: w.T[i-1], Rising: v1 > v0}, i + step, true
			}
			continue
		}
		frac := (level - v0) / (v1 - v0)
		t := w.T[i-1] + frac*(w.T[i]-w.T[i-1])
		return Crossing{Time: t, Rising: v1 > v0}, i + step, true
	}
	return Crossing{}, i, false
}

// FirstCross returns the first crossing of level: the element Crossings
// would start with, found without building the list.
func (w Waveform) FirstCross(level float64) (Crossing, bool) {
	c, _, ok := w.nextCross(level, 1)
	return c, ok
}

// LastCross returns the last crossing of level: the element Crossings
// would end with, found by walking back from the last segment.
func (w Waveform) LastCross(level float64) (Crossing, bool) {
	c, _, ok := w.scanCross(level, len(w.T)-1, -1)
	return c, ok
}

// CrossTime returns the first time at or after 'after' when the waveform
// crosses level in the requested direction. The boolean result reports
// whether such a crossing exists.
func (w Waveform) CrossTime(level float64, rising bool, after float64) (float64, bool) {
	for c, i, ok := w.nextCross(level, 1); ok; c, i, ok = w.nextCross(level, i) {
		if c.Rising == rising && c.Time >= after {
			return c.Time, true
		}
	}
	return 0, false
}

// Delay50 computes the conventional 50% propagation delay from the input
// waveform's first crossing of vdd/2 at or after tAfter to the output
// waveform's first crossing of vdd/2 (in either direction) after the input
// event. It returns an error when either crossing is absent.
func Delay50(in, out Waveform, vdd, tAfter float64) (float64, error) {
	half := vdd / 2
	tin, ok := firstCrossAnyDir(in, half, tAfter)
	if !ok {
		return 0, errors.New("wave: input never crosses 50% level")
	}
	tout, ok := firstCrossAnyDir(out, half, tin)
	if !ok {
		return 0, errors.New("wave: output never crosses 50% level after input event")
	}
	return tout - tin, nil
}

// OutputCross50 returns the output's first vdd/2 crossing in the given
// direction at or after tAfter. It is the building block for delay
// measurements when the input reference instant is already known.
func OutputCross50(out Waveform, vdd float64, rising bool, tAfter float64) (float64, error) {
	t, ok := out.CrossTime(vdd/2, rising, tAfter)
	if !ok {
		return 0, fmt.Errorf("wave: no %s 50%% crossing after t=%g", dirName(rising), tAfter)
	}
	return t, nil
}

func dirName(rising bool) string {
	if rising {
		return "rising"
	}
	return "falling"
}

func firstCrossAnyDir(w Waveform, level, after float64) (float64, bool) {
	for c, i, ok := w.nextCross(level, 1); ok; c, i, ok = w.nextCross(level, i) {
		if c.Time >= after {
			return c.Time, true
		}
	}
	return 0, false
}

// TransitionTime measures the slew of the first transition after tAfter in
// the given direction, between loFrac·vdd and hiFrac·vdd (e.g. 0.1/0.9 for
// 10–90%). The returned value is positive; an error is returned when the
// waveform does not complete the transition.
func TransitionTime(w Waveform, vdd float64, rising bool, loFrac, hiFrac, tAfter float64) (float64, error) {
	if loFrac >= hiFrac {
		return 0, fmt.Errorf("wave: invalid slew fractions %g >= %g", loFrac, hiFrac)
	}
	lo := loFrac * vdd
	hi := hiFrac * vdd
	if rising {
		t0, ok := w.CrossTime(lo, true, tAfter)
		if !ok {
			return 0, errors.New("wave: no rising low-threshold crossing")
		}
		t1, ok := w.CrossTime(hi, true, t0)
		if !ok {
			return 0, errors.New("wave: no rising high-threshold crossing")
		}
		return t1 - t0, nil
	}
	t0, ok := w.CrossTime(hi, false, tAfter)
	if !ok {
		return 0, errors.New("wave: no falling high-threshold crossing")
	}
	t1, ok := w.CrossTime(lo, false, t0)
	if !ok {
		return 0, errors.New("wave: no falling low-threshold crossing")
	}
	return t1 - t0, nil
}

// RMSE computes the paper's Eq. 6 metric between a reference waveform and a
// model waveform: the root mean squared voltage difference sampled uniformly
// (n points) over [t0, t1]. Callers typically normalize the result by Vdd.
func RMSE(ref, model Waveform, t0, t1 float64, n int) float64 {
	if n < 2 || t1 <= t0 {
		return 0
	}
	var sum float64
	dt := (t1 - t0) / float64(n-1)
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*dt
		d := ref.At(t) - model.At(t)
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Extremum scans [t0, t1] on the waveform's own samples (plus the window
// edges) and returns the minimum and maximum values in the window.
func (w Waveform) Extremum(t0, t1 float64) (min, max float64) {
	w.whole()
	min = math.Inf(1)
	max = math.Inf(-1)
	consider := func(v float64) {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	consider(w.At(t0))
	consider(w.At(t1))
	for i := range w.T {
		if w.T[i] >= t0 && w.T[i] <= t1 {
			consider(w.V[i])
		}
	}
	return min, max
}

// PeakValue returns the maximum value in [t0, t1] and the sample time at
// which it occurs (window edges included).
func (w Waveform) PeakValue(t0, t1 float64) (peak, atTime float64) {
	w.whole()
	peak = math.Inf(-1)
	atTime = t0
	consider := func(v, t float64) {
		if v > peak {
			peak, atTime = v, t
		}
	}
	consider(w.At(t0), t0)
	consider(w.At(t1), t1)
	for i := range w.T {
		if w.T[i] >= t0 && w.T[i] <= t1 {
			consider(w.V[i], w.T[i])
		}
	}
	return peak, atTime
}
