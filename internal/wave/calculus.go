package wave

// Derivative returns the time derivative of the waveform, computed with
// central differences on the interior samples (one-sided at the ends when
// fewer than three samples exist). The result is sampled on the original
// grid minus the two end points.
func (w Waveform) Derivative() Waveform {
	n := w.Len()
	if n < 3 {
		return Waveform{}
	}
	ts := make([]float64, 0, n-2)
	vs := make([]float64, 0, n-2)
	for k := 1; k < n-1; k++ {
		dt := w.T[k+1] - w.T[k-1]
		if dt <= 0 {
			continue
		}
		ts = append(ts, w.T[k])
		vs = append(vs, (w.V[k+1]-w.V[k-1])/dt)
	}
	return Waveform{T: ts, V: vs}
}

// Energy returns ∫v² dt over the waveform's span — useful as a crude
// signal-activity metric.
func (w Waveform) Energy() float64 {
	var acc float64
	for k := 1; k < w.Len(); k++ {
		v2 := 0.5 * (w.V[k]*w.V[k] + w.V[k-1]*w.V[k-1])
		acc += v2 * (w.T[k] - w.T[k-1])
	}
	return acc
}
