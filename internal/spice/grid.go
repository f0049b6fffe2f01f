package spice

import (
	"fmt"
	"math"
)

// Grid is the step control of a transient run over [start, stop]: fixed
// steps of dt (NewGrid) or ΔV-adaptive steps (NewAdaptive). A fixed-step
// grid is also the run's time axis: the initial time, then the end of
// every step. Step k ends at start + k·dt, clamped to stop, and the loop
// ends before a final step shorter than a millionth of dt (see step). A
// grid is read-only once built, so every run on it, and every waveform
// those runs return, shares its times instead of recording a copy. An
// adaptive run picks its steps as it goes and records its own times.
type Grid struct {
	start, stop, dt float64
	steps           int              // FixedSteps(start, stop, dt); MaxSteps, the bound, when adaptive
	t               []float64        // the times, len == cap; nil on a window or when adaptive
	dv              *AdaptiveOptions // the ΔV control (NewAdaptive); nil for fixed steps
}

// AdaptiveOptions controls ΔV-based adaptive time stepping: the step grows
// while node voltages move slowly and shrinks through fast transitions.
// This is the classic fast-SPICE control (cheaper than LTE estimation and
// effective for digital waveforms, which are quiet most of the time).
type AdaptiveOptions struct {
	DtMin float64 // smallest allowed step
	DtMax float64 // largest allowed step
	MaxDV float64 // target maximum node-voltage change per step (default Vdd/20 ≈ 60 mV)
	// DtInit seeds the very first step (clamped to [DtMin, DtMax]).
	// Zero keeps the historical default of DtMin·4. Characterization
	// callers set it from the previous grid point's accepted step history
	// so neighboring points skip the initial grow-from-minimum ramp.
	DtInit float64
}

// An adaptive run grows the step by growBy after each accepted step and
// shrinks it by shrinkBy on each rejected attempt, of which a step gets
// at most maxAttempts.
const (
	growBy      = 1.4
	shrinkBy    = 0.5
	maxAttempts = 40
)

// DefaultAdaptive returns the standard adaptive configuration for the
// nanosecond-scale digital waveforms of this repository.
func DefaultAdaptive() AdaptiveOptions {
	return AdaptiveOptions{
		DtMin: 0.05e-12,
		DtMax: 20e-12,
		MaxDV: 0.06,
	}
}

// NewAdaptive returns the ΔV step control of a run over [start, stop]. A
// step whose largest node-voltage change exceeds MaxDV is rejected and
// retried at half the length, down to DtMin; each accepted step lets the
// next grow toward DtMax. The run records its accepted, non-uniform time
// points and fails once it has taken MaxSteps steps. NewAdaptive fails
// on a NaN or infinite window end or option, an empty window, a DtMin
// that is not positive and a DtMax below it, as FixedSteps fails on a
// NaN step or window.
func NewAdaptive(start, stop float64, opt AdaptiveOptions) (*Grid, error) {
	for _, v := range [...]float64{start, stop, opt.DtMin, opt.DtMax, opt.MaxDV, opt.DtInit} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("spice: invalid adaptive window/steps")
		}
	}
	if opt.DtMin <= 0 || opt.DtMax < opt.DtMin || stop <= start {
		return nil, fmt.Errorf("spice: invalid adaptive window/steps")
	}
	if opt.MaxDV <= 0 {
		opt.MaxDV = 0.06
	}
	if opt.DtInit <= 0 {
		opt.DtInit = opt.DtMin * 4
	}
	opt.DtInit = min(max(opt.DtInit, opt.DtMin), opt.DtMax)
	return &Grid{start: start, stop: stop, steps: MaxSteps, dv: &opt}, nil
}

// accepts reports whether an adaptive step of length h that moved the
// node voltages from xprev to x is kept: it moved none of them by more
// than MaxDV, or it cannot shrink.
func (o *AdaptiveOptions) accepts(x, xprev []float64, h float64) bool {
	maxDV := 0.0
	for i, v := range x {
		if d := math.Abs(v - xprev[i]); d > maxDV {
			maxDV = d
		}
	}
	return maxDV <= o.MaxDV || h <= o.DtMin*1.0000001
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

// Times returns a fixed-step grid's times, nil for an adaptive one. The
// slice is shared and read-only; its capacity equals its length, so an
// append copies it.
func (g *Grid) Times() []float64 { return g.t }

// Start returns the window's start time.
func (g *Grid) Start() float64 { return g.start }

// Spans reports whether g is the time axis of [start, stop] at dt.
func (g *Grid) Spans(start, stop, dt float64) bool {
	return g.start == start && g.stop == stop && g.dt == dt
}
