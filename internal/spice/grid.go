package spice

import (
	"fmt"
	"math"
)

// Grid is the time axis of a fixed-step run over [start, stop] at dt:
// the initial time, then the end of every step the fixed-step loop takes.
// Step k ends at start + k·dt, clamped to stop, and the loop ends before
// a final step shorter than a millionth of dt (see step). A grid is
// read-only once built, so every run on it, and every waveform those runs
// return, shares its times instead of recording a copy.
type Grid struct {
	start, stop, dt float64
	steps           int       // FixedSteps(start, stop, dt)
	t               []float64 // the times, len == cap; nil on a window
}

// FixedSteps returns the step count of a fixed-step run over [start, stop]
// at dt. It fails on an empty window, a step that is not positive and
// finite, and a count that is not finite or exceeds MaxSteps.
func FixedSteps(start, stop, dt float64) (int, error) {
	if !(dt > 0) || math.IsInf(dt, 1) || !(stop > start) {
		return 0, fmt.Errorf("spice: invalid transient window [%g,%g] dt=%g", start, stop, dt)
	}
	steps := math.Ceil((stop - start) / dt)
	if !(steps <= MaxSteps) {
		return 0, fmt.Errorf("spice: transient window [%g,%g] at dt=%g needs %g steps, more than %d",
			start, stop, dt, steps, MaxSteps)
	}
	if steps < 1 {
		return 0, fmt.Errorf("spice: transient window [%g,%g] at dt=%g has no step", start, stop, dt)
	}
	return int(steps), nil
}

// window checks a fixed-step window and returns it as a grid without
// times, for a run that records its own.
func window(start, stop, dt float64) (*Grid, error) {
	steps, err := FixedSteps(start, stop, dt)
	if err != nil {
		return nil, err
	}
	return &Grid{start: start, stop: stop, dt: dt, steps: steps}, nil
}

// NewGrid builds the time axis of a fixed-step run over [start, stop] at
// dt. It fails as FixedSteps does.
func NewGrid(start, stop, dt float64) (*Grid, error) {
	g, err := window(start, stop, dt)
	if err != nil {
		return nil, err
	}
	t := make([]float64, 1, g.steps+1)
	t[0] = start
	for k := 1; k <= g.steps; k++ {
		tEnd, _, ok := g.step(k)
		if !ok {
			break
		}
		t = append(t, tEnd)
	}
	g.t = t[:len(t):len(t)]
	return g, nil
}

// step returns the end time and the length of step k ≥ 1, and false when
// it is the sliver of a final step that the loop skips: a length of
// ~1e-24 s would turn capacitor companions into ~1e9 S conductances and
// destroy the system's conditioning. The length is measured from the
// unclamped end of step k−1.
func (g *Grid) step(k int) (t, h float64, ok bool) {
	t = g.start + float64(k)*g.dt
	if t > g.stop {
		t = g.stop
	}
	h = t - (g.start + float64(k-1)*g.dt)
	return t, h, h > g.dt*1e-6
}

// Times returns the grid's times. The slice is shared and read-only; its
// capacity equals its length, so an append copies it.
func (g *Grid) Times() []float64 { return g.t }

// Start returns the window's start time.
func (g *Grid) Start() float64 { return g.start }

// Spans reports whether g is the time axis of [start, stop] at dt.
func (g *Grid) Spans(start, stop, dt float64) bool {
	return g.start == start && g.stop == stop && g.dt == dt
}
