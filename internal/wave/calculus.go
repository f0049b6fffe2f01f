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
