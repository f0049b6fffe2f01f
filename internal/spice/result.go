package spice

import (
	"fmt"
	"slices"

	"mcsm/internal/wave"
)

// Result holds the sampled solution of a transient run: the recorded
// unknowns (every node voltage and auxiliary unknown, unless the run was
// asked to keep only some) at every accepted time point.
type Result struct {
	ckt   *Circuit
	Times []float64
	// cols[i] holds unknown i at every recorded time point; it is nil
	// when the run did not record unknown i.
	cols [][]float64
	keep []int // the recorded unknowns, in record order
}

// MaxSteps bounds the time points of one fixed-step run: RunFrom rejects
// a window/step pair that needs more, so a mistaken or hostile dt fails
// fast instead of recording for hours. Every fixed-step run in the
// repository stays far below it (a 4 ns window at 1 ps is 4,000 steps).
const MaxSteps = 1 << 20

// unknownSteps is the room an adaptive record, or a fixed-step one with a
// stop check, reserves before it starts doubling.
const unknownSteps = 64

// newResult returns a record of the keep unknowns (all n when keep is
// empty) with room reserved for steps time points, so a run that records
// at most that many allocates nothing more. Pass 0 when the count is
// unknown (adaptive stepping); the record then doubles as it fills.
func newResult(c *Circuit, n, steps int, keep []int) *Result {
	if steps <= 0 || steps > MaxSteps {
		steps = unknownSteps
	}
	if len(keep) == 0 {
		keep = make([]int, n)
		for i := range keep {
			keep[i] = i
		}
	}
	r := &Result{ckt: c, cols: make([][]float64, n), keep: keep}
	r.reserve(steps)
	return r
}

// reserve moves the record into storage for steps time points: one slice
// for the times and one shared by the kept columns, each column capped
// at its own share.
func (r *Result) reserve(steps int) {
	r.Times = append(make([]float64, 0, steps), r.Times...)
	backing := make([]float64, len(r.keep)*steps)
	for k, i := range r.keep {
		r.cols[i] = append(backing[k*steps:k*steps:(k+1)*steps], r.cols[i]...)
	}
}

// checkKeep validates a run's keep list against n unknowns.
func checkKeep(keep []int, n int) error {
	for k, i := range keep {
		if i < 0 || i >= n || slices.Contains(keep[:k], i) {
			return fmt.Errorf("spice: cannot record unknown %d of %d (out of range or listed twice)", i, n)
		}
	}
	return nil
}

// record appends the kept entries of x at time t. Every column has the
// times' capacity, so only reserve ever allocates.
func (r *Result) record(t float64, x []float64) {
	if len(r.Times) == cap(r.Times) {
		r.reserve(2 * cap(r.Times))
	}
	r.Times = append(r.Times, t)
	for _, i := range r.keep {
		r.cols[i] = append(r.cols[i], x[i])
	}
}

// col returns the recorded samples of unknown i. Asking for an unknown
// the run did not keep is a programming error.
func (r *Result) col(i int) []float64 {
	if i < 0 || i >= len(r.cols) || r.cols[i] == nil {
		panic(fmt.Sprintf("spice: unknown %d was not recorded by this run", i))
	}
	return r.cols[i]
}

// waveOf wraps recorded samples as a waveform sharing the record's
// storage, capped so an append to either slice copies instead of
// overwriting the record.
func (r *Result) waveOf(v []float64) wave.Waveform {
	n := len(r.Times)
	return wave.Waveform{T: r.Times[:n:n], V: v[:n:n]}
}

// Steps returns the number of recorded time points.
func (r *Result) Steps() int { return len(r.Times) }

// At returns unknown i at step k.
func (r *Result) At(k, i int) float64 { return r.col(i)[k] }

// Wave returns the voltage waveform of a node. The waveform shares the
// record's samples (waveforms are immutable), so it costs no copy.
func (r *Result) Wave(n Node) wave.Waveform {
	if n == Ground {
		return r.waveOf(make([]float64, len(r.Times)))
	}
	return r.waveOf(r.col(int(n) - 1))
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
// by the circuit). Like Wave, it shares the record's samples.
func (r *Result) AuxWave(idx int) wave.Waveform { return r.waveOf(r.col(idx)) }
