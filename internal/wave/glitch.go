package wave

import "math"

// GlitchMetrics characterizes a transient disturbance of a nominally quiet
// node relative to its base level — the standard noise-analysis view of a
// crosstalk bump or a propagated glitch.
type GlitchMetrics struct {
	Peak     float64 // the extreme value reached (above or below base)
	PeakTime float64 // when it is reached
	Height   float64 // |Peak − base|
	Width    float64 // time spent beyond base ± Height/2 (50% width)
	Area     float64 // ∫ |v − base| dt over the window, V·s
}

// MeasureGlitch analyzes the waveform in [t0, t1] against the base level.
// The dominant excursion direction (above or below base) is detected
// automatically.
func MeasureGlitch(w Waveform, base, t0, t1 float64) GlitchMetrics {
	min, max := w.Extremum(t0, t1)
	up := max - base
	down := base - min
	var g GlitchMetrics
	if up >= down {
		g.Peak, g.PeakTime = w.PeakValue(t0, t1)
	} else {
		g.Peak, g.PeakTime = minValue(w, t0, t1)
	}
	g.Height = math.Abs(g.Peak - base)
	if g.Height == 0 {
		return g
	}

	// 50% width: crossings of base ± Height/2 around the peak.
	level := base + (g.Peak-base)/2
	rising := g.Peak > base
	// Entering crossing: the last time before PeakTime the waveform crosses
	// the level toward the peak; exit: first crossing back after PeakTime.
	var tIn, tOut float64 = t0, t1
	for _, c := range w.Crossings(level) {
		if c.Time <= g.PeakTime && c.Rising == rising {
			tIn = c.Time
		}
		if c.Time >= g.PeakTime && c.Rising != rising {
			tOut = c.Time
			break
		}
	}
	g.Width = tOut - tIn

	// Area by uniform sampling (the waveforms here are densely sampled
	// simulator outputs, so 1000 points is far below their resolution).
	const n = 1000
	dt := (t1 - t0) / float64(n-1)
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*dt
		g.Area += math.Abs(w.At(t)-base) * dt
	}
	return g
}

// minValue returns the minimum value in [t0, t1] and its sample time.
func minValue(w Waveform, t0, t1 float64) (min, atTime float64) {
	w.whole()
	min = math.Inf(1)
	atTime = t0
	consider := func(v, t float64) {
		if v < min {
			min, atTime = v, t
		}
	}
	consider(w.At(t0), t0)
	consider(w.At(t1), t1)
	for i := range w.T {
		if w.T[i] >= t0 && w.T[i] <= t1 {
			consider(w.V[i], w.T[i])
		}
	}
	return min, atTime
}
