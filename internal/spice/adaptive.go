package spice

import (
	"fmt"
	"math"
)

// AdaptiveOptions controls ΔV-based adaptive time stepping: the step grows
// while node voltages move slowly and shrinks through fast transitions.
// This is the classic fast-SPICE control (cheaper than LTE estimation and
// effective for digital waveforms, which are quiet most of the time).
type AdaptiveOptions struct {
	DtMin    float64 // smallest allowed step
	DtMax    float64 // largest allowed step
	MaxDV    float64 // target maximum node-voltage change per step (default Vdd/20 ≈ 60 mV)
	GrowBy   float64 // step growth factor after quiet steps (default 1.4)
	ShrinkBy float64 // step reduction factor on violation (default 0.5)
	// DtInit seeds the very first step (clamped to [DtMin, DtMax]).
	// Zero keeps the historical default of DtMin·4. Characterization
	// callers set it from the previous grid point's accepted step history
	// so neighboring points skip the initial grow-from-minimum ramp.
	DtInit float64
}

// DefaultAdaptive returns the standard adaptive configuration for the
// nanosecond-scale digital waveforms of this repository.
func DefaultAdaptive() AdaptiveOptions {
	return AdaptiveOptions{
		DtMin:    0.05e-12,
		DtMax:    20e-12,
		MaxDV:    0.06,
		GrowBy:   1.4,
		ShrinkBy: 0.5,
	}
}

// RunAdaptive performs a transient analysis with adaptive step control,
// starting from a DC solve at start. A step whose largest node-voltage
// change exceeds MaxDV is rejected and retried at a smaller dt; quiet steps
// let dt grow toward DtMax. Results are recorded at the accepted (non-
// uniform) time points.
func (e *Engine) RunAdaptive(start, stop float64, opt AdaptiveOptions) (*Result, error) {
	x0, err := e.DCAt(start)
	if err != nil {
		return nil, err
	}
	return e.RunAdaptiveFrom(x0, start, stop, opt)
}

// RunAdaptiveFrom is RunAdaptive with a caller-supplied initial state.
func (e *Engine) RunAdaptiveFrom(x0 []float64, start, stop float64, opt AdaptiveOptions) (*Result, error) {
	if opt.DtMin <= 0 || opt.DtMax < opt.DtMin || stop <= start {
		return nil, fmt.Errorf("spice: invalid adaptive window/steps")
	}
	if opt.MaxDV <= 0 {
		opt.MaxDV = 0.06
	}
	if opt.GrowBy <= 1 {
		opt.GrowBy = 1.4
	}
	if opt.ShrinkBy <= 0 || opt.ShrinkBy >= 1 {
		opt.ShrinkBy = 0.5
	}
	n := e.Unknowns()
	if len(x0) != n {
		return nil, fmt.Errorf("spice: initial state has %d unknowns, want %d", len(x0), n)
	}

	res := newResult(e.ckt, n, 0, nil, nil)
	x := make([]float64, n)
	xprev := make([]float64, n)
	copy(x, x0)
	copy(xprev, x0)
	ctx := &Context{Mode: ModeTransient, SrcScale: 1, X: x, Xprev: xprev}

	for _, el := range e.ckt.Elements() {
		if st, ok := el.(Stepper); ok {
			resetBranches(st)
		}
	}

	res.record(start, x0)
	t := start
	dt := opt.DtInit
	if dt <= 0 {
		dt = opt.DtMin * 4
	}
	if dt < opt.DtMin {
		dt = opt.DtMin
	}
	if dt > opt.DtMax {
		dt = opt.DtMax
	}
	firstStep := true
	for t < stop-opt.DtMin/2 {
		if t+dt > stop {
			dt = stop - t
		}
		accepted := false
		for attempt := 0; attempt < 40 && !accepted; attempt++ {
			ctx.Time = t + dt
			ctx.Dt = dt
			if firstStep {
				ctx.Method = BackwardEuler
			} else {
				ctx.Method = e.opt.Method
			}
			copy(ctx.X, ctx.Xprev)
			for _, st := range e.steppers {
				st.BeginStep(ctx)
			}
			err := e.newton(ctx, e.opt.Gmin)
			if err == nil {
				// Check the ΔV criterion on node voltages.
				maxDV := 0.0
				for i := 0; i < e.nNodes; i++ {
					if d := math.Abs(ctx.X[i] - ctx.Xprev[i]); d > maxDV {
						maxDV = d
					}
				}
				if maxDV <= opt.MaxDV || dt <= opt.DtMin*1.0000001 {
					accepted = true
					break
				}
			}
			// Reject: shrink and retry (also the Newton-failure path).
			dt *= opt.ShrinkBy
			if dt < opt.DtMin {
				dt = opt.DtMin
			}
			if err != nil && dt <= opt.DtMin*1.0000001 {
				// Last resort at the minimum step: try backward Euler.
				ctx.Method = BackwardEuler
				copy(ctx.X, ctx.Xprev)
				for _, st := range e.steppers {
					st.BeginStep(ctx)
				}
				if err2 := e.newton(ctx, e.opt.Gmin); err2 != nil {
					return res, fmt.Errorf("spice: adaptive step at t=%g failed: %w", ctx.Time, err2)
				}
				accepted = true
			}
		}
		if !accepted {
			return res, fmt.Errorf("spice: adaptive step at t=%g not accepted", t)
		}
		for _, st := range e.steppers {
			st.AcceptStep(ctx)
		}
		copy(ctx.Xprev, ctx.X)
		t = ctx.Time
		res.record(t, ctx.X)
		firstStep = false
		// Grow gently after an accepted step.
		dt *= opt.GrowBy
		if dt > opt.DtMax {
			dt = opt.DtMax
		}
	}
	return res, nil
}
