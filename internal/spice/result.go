package spice

import (
	"fmt"

	"mcsm/internal/wave"
)

// Result holds the sampled solution of a transient run: every node voltage
// and every auxiliary unknown at every accepted time point.
type Result struct {
	ckt    *Circuit
	Times  []float64
	values [][]float64 // values[k] is the unknown vector at Times[k]
	arena  []float64   // backing store the rows of values slice into
}

// maxReservedSteps bounds the record newResult reserves up front. A longer
// run (a mistaken or hostile dt) grows its record chunk by chunk instead,
// so no window can demand one giant allocation before its first step.
const maxReservedSteps = 1 << 20

// newResult returns a record for n unknowns with room reserved for steps
// time points: one arena holds every row, so a run that records at most
// steps points allocates nothing more. Pass 0 when the count is unknown
// (adaptive stepping); record then grows the arena a chunk at a time.
func newResult(c *Circuit, n, steps int) *Result {
	if steps < 0 || steps > maxReservedSteps {
		steps = 0
	}
	return &Result{
		ckt:    c,
		Times:  make([]float64, 0, steps),
		values: make([][]float64, 0, steps),
		arena:  make([]float64, steps*n),
	}
}

// record appends a snapshot of x. Rows are carved out of the arena; when
// it runs out a fresh 64-step chunk is allocated, so an unreserved run
// costs O(steps/64) allocations instead of one per step. Rows never move
// once handed out, so retained sub-slices in values stay valid as the
// arena advances.
func (r *Result) record(t float64, x []float64) {
	if len(x) > 0 {
		if len(r.arena) < len(x) {
			r.arena = make([]float64, 64*len(x))
		}
		cp := r.arena[:len(x):len(x)]
		r.arena = r.arena[len(x):]
		copy(cp, x)
		r.values = append(r.values, cp)
	} else {
		r.values = append(r.values, nil)
	}
	r.Times = append(r.Times, t)
}

// Steps returns the number of recorded time points.
func (r *Result) Steps() int { return len(r.Times) }

// At returns unknown i at step k.
func (r *Result) At(k, i int) float64 { return r.values[k][i] }

// Wave returns the voltage waveform of a node.
func (r *Result) Wave(n Node) wave.Waveform {
	v := make([]float64, len(r.Times))
	if n != Ground {
		idx := int(n) - 1
		for k := range r.Times {
			v[k] = r.values[k][idx]
		}
	}
	t := make([]float64, len(r.Times))
	copy(t, r.Times)
	return wave.Waveform{T: t, V: v}
}

// WaveByName returns the voltage waveform of the named node.
func (r *Result) WaveByName(name string) (wave.Waveform, error) {
	i, ok := r.lookupNode(name)
	if !ok {
		return wave.Waveform{}, fmt.Errorf("spice: unknown node %q", name)
	}
	return r.Wave(Node(i)), nil
}

func (r *Result) lookupNode(name string) (int, bool) {
	i, ok := r.ckt.byName[name]
	return i, ok
}

// AuxWave returns the waveform of an absolute auxiliary unknown index.
// For a VSource v, use v.AuxIndex(); the value is the current flowing from
// the positive terminal through the source (i.e. delivered into the source
// by the circuit).
func (r *Result) AuxWave(idx int) wave.Waveform {
	t := make([]float64, len(r.Times))
	copy(t, r.Times)
	v := make([]float64, len(r.Times))
	for k := range r.Times {
		v[k] = r.values[k][idx]
	}
	return wave.Waveform{T: t, V: v}
}

// AuxWavePooled is AuxWave with the sample slices drawn from the wave
// package's free-list pool. The caller owns the returned waveform and must
// hand it back with wave.Release once done measuring — after that the
// samples may be overwritten by an unrelated waveform. Use it only in
// tight characterization loops that fully consume the waveform before the
// next solve; anything retained beyond the loop should use AuxWave.
func (r *Result) AuxWavePooled(idx int) wave.Waveform {
	t := wave.GetSamples(len(r.Times))
	copy(t, r.Times)
	v := wave.GetSamples(len(r.Times))
	for k := range r.Times {
		v[k] = r.values[k][idx]
	}
	return wave.Waveform{T: t, V: v}
}

// Current returns the branch-current waveform of the named voltage source.
func (r *Result) Current(vsrcName string) (wave.Waveform, error) {
	for _, el := range r.ckt.Elements() {
		if v, ok := el.(*VSource); ok && v.Name() == vsrcName {
			return r.AuxWave(v.AuxIndex()), nil
		}
	}
	return wave.Waveform{}, fmt.Errorf("spice: no voltage source named %q", vsrcName)
}

// Final returns a copy of the last recorded unknown vector, usable as the
// initial state of a follow-on RunFrom.
func (r *Result) Final() []float64 {
	last := r.values[len(r.values)-1]
	cp := make([]float64, len(last))
	copy(cp, last)
	return cp
}

// SupplyEnergy integrates the energy delivered by the named voltage source
// over [t0, t1]: E = ∫ V·(−I) dt, with I the branch current into the
// source (so a delivering supply has negative I and positive energy).
func (r *Result) SupplyEnergy(vsrcName string, t0, t1 float64) (float64, error) {
	for _, el := range r.ckt.Elements() {
		v, ok := el.(*VSource)
		if !ok || v.Name() != vsrcName {
			continue
		}
		iw := r.AuxWave(v.AuxIndex())
		var e float64
		for k := 1; k < len(iw.T); k++ {
			tm := 0.5 * (iw.T[k] + iw.T[k-1])
			if tm < t0 || tm > t1 {
				continue
			}
			im := 0.5 * (iw.V[k] + iw.V[k-1])
			e += -v.Value(tm) * im * (iw.T[k] - iw.T[k-1])
		}
		return e, nil
	}
	return 0, fmt.Errorf("spice: no voltage source named %q", vsrcName)
}
