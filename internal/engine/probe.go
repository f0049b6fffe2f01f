package engine

import (
	"math"

	"mcsm/internal/sta"
)

// ReportsIdentical is the single definition of the determinism contract's
// equality: bit-for-bit agreement on Vdd, the net set, arrivals, slews,
// directions, every waveform sample, and the MIS instance list. Floats are
// compared by bit pattern so identical NaNs (never-switching nets) count
// as equal. Nil reports are handled: two nils are identical, a nil and a
// non-nil are not. Used by the engine's equivalence tests and the golden
// regression fixtures.
func ReportsIdentical(a, b *sta.Report) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Vdd != b.Vdd || len(a.Nets) != len(b.Nets) || len(a.MISInstances) != len(b.MISInstances) {
		return false
	}
	for i := range a.MISInstances {
		if a.MISInstances[i] != b.MISInstances[i] {
			return false
		}
	}
	for net, ra := range a.Nets {
		rb, ok := b.Nets[net]
		if !ok || ra.Rising != rb.Rising ||
			math.Float64bits(ra.Arrival) != math.Float64bits(rb.Arrival) ||
			math.Float64bits(ra.Slew) != math.Float64bits(rb.Slew) ||
			len(ra.Wave.T) != len(rb.Wave.T) || len(ra.Wave.V) != len(rb.Wave.V) {
			return false
		}
		for i := range ra.Wave.T {
			if math.Float64bits(ra.Wave.T[i]) != math.Float64bits(rb.Wave.T[i]) ||
				math.Float64bits(ra.Wave.V[i]) != math.Float64bits(rb.Wave.V[i]) {
				return false
			}
		}
	}
	return true
}
