package spice

import (
	"fmt"
	"math"
	"testing"

	"mcsm/internal/wave"
)

// oracleAdaptiveOptions is AdaptiveOptions as it stood before its growth
// and shrink factors became constants.
type oracleAdaptiveOptions struct {
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

// oracleOptions is opt with the growth and shrink factors every caller
// passed.
func oracleOptions(opt AdaptiveOptions) oracleAdaptiveOptions {
	return oracleAdaptiveOptions{DtMin: opt.DtMin, DtMax: opt.DtMax, MaxDV: opt.MaxDV, GrowBy: 1.4, ShrinkBy: 0.5, DtInit: opt.DtInit}
}

// runAdaptiveOracle is RunAdaptiveFrom as it stood before the fixed-step
// and adaptive loops merged, kept verbatim (only its name and its options
// type's name changed) as the oracle of adaptive runs.
func (e *Engine) runAdaptiveOracle(x0 []float64, start, stop float64, opt oracleAdaptiveOptions) (*Result, error) {
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

// requireOracleRun runs build's circuit from its DC point at 0 (solved
// with the default options) on the one loop under NewAdaptive(0, stop,
// aopt) and on the oracle, each on an engine of its own with options opt,
// and checks that both fail or both succeed, having recorded the same
// times and every unknown bit for bit. It returns the record's length.
func requireOracleRun(t *testing.T, what string, build func(Options) *Engine, opt Options, stop float64, aopt AdaptiveOptions) int {
	t.Helper()
	x0, err := build(DefaultOptions()).DCAt(0)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	g, err := NewAdaptive(0, stop, aopt)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got, errG := build(opt).RunFrom(x0, g, nil)
	want, errO := build(opt).runAdaptiveOracle(x0, 0, stop, oracleOptions(aopt))
	if (errG == nil) != (errO == nil) {
		t.Fatalf("%s: one loop error %v, oracle error %v", what, errG, errO)
	}
	if err := sameRecord(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return want.Steps()
}

// sameRecord compares two records of every unknown bit for bit.
func sameRecord(got, want *Result) error {
	if len(got.Times) != len(want.Times) || len(got.cols) != len(want.cols) {
		return fmt.Errorf("%d time points of %d unknowns, oracle %d of %d", len(got.Times), len(got.cols), len(want.Times), len(want.cols))
	}
	for k, tw := range want.Times {
		if math.Float64bits(got.Times[k]) != math.Float64bits(tw) {
			return fmt.Errorf("time %d = %v, oracle %v", k, got.Times[k], tw)
		}
		for i := range want.cols {
			if g, w := got.At(k, i), want.At(k, i); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("unknown %d at time %d = %v, oracle %v", i, k, g, w)
			}
		}
	}
	return nil
}

// buildRC is a 1 kΩ, 1 pF RC low-pass driven by a 20 ps ramp that
// starts at t0.
func buildRC(opt Options, t0 float64) *Engine {
	c := NewCircuit()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("V1", in, Ground, wave.SaturatedRamp(0, 1, t0, 20e-12, 3e-9))
	c.AddResistor("R", in, out, 1e3)
	c.AddCapacitor("C", out, Ground, 1e-12)
	return NewEngine(c, opt)
}

// TestAdaptiveLoopOracle: an adaptive run on the one transient loop
// records what the adaptive loop recorded before the loops merged, bit
// for bit, and fails where it failed, on the RC and inverter circuits
// under the trapezoidal and backward Euler rules, chord Newton, a tight
// ΔV bound, a seeded first step and the characterization ramps' option
// set; and, with Newton cut to a few iterations, through every retry,
// shrink and failure path: steps rejected for failing Newton, backward
// Euler retries at the minimum step that succeed (the inverter's coarse
// steps) or fail, and a step that fails under backward Euler at the
// minimum step, which the one loop does not repeat. A step that is never
// accepted fails both.
func TestAdaptiveLoopOracle(t *testing.T) {
	be := DefaultOptions()
	be.Method = BackwardEuler
	lag := DefaultOptions()
	lag.JacobianLag = 3
	ramp := be // the Config.Fast extraction ramps' solver
	ramp.JacobianLag = 3
	iters := func(n int) Options {
		o := DefaultOptions()
		o.MaxIter = n
		return o
	}
	def := DefaultAdaptive()
	tight := def
	tight.MaxDV = 0.005
	seeded := def
	seeded.DtMax = 40e-12
	seeded.DtInit = 7e-12
	rampOpt := AdaptiveOptions{DtMin: 0.5e-12, DtMax: 16e-12, MaxDV: 1.2 / 24, DtInit: 3e-12}
	coarse := AdaptiveOptions{DtMin: 40e-12, DtMax: 320e-12, MaxDV: 0.06}
	circuits := map[string]func(Options) *Engine{
		"RC":       func(o Options) *Engine { return buildRC(o, 0.3e-9) },
		"inverter": func(o Options) *Engine { e, _ := buildInverter(o); return e },
	}
	cases := []struct {
		name string
		opt  Options
		aopt AdaptiveOptions
	}{
		{"trapezoidal", DefaultOptions(), def},
		{"backward Euler", be, def},
		{"chord Newton", lag, def},
		{"tight MaxDV", DefaultOptions(), tight},
		{"seeded DtInit", DefaultOptions(), seeded},
		{"ramp options", ramp, rampOpt},
		{"MaxIter 2", iters(2), def},
		{"MaxIter 2, backward Euler", func() Options { o := iters(2); o.Method = BackwardEuler; return o }(), def},
		{"MaxIter 5, coarse steps", iters(5), coarse},
		{"MaxIter 1", iters(1), def},
		{"MaxIter 1, backward Euler", func() Options { o := iters(1); o.Method = BackwardEuler; return o }(), def},
	}
	points := 0
	for name, build := range circuits {
		for _, tc := range cases {
			points += requireOracleRun(t, name+", "+tc.name, build, tc.opt, 3e-9, tc.aopt)
		}
	}
	// The input moves from the first step, by more than MaxDV at every
	// length forty halvings of DtMax reach, and DtMin lies below them all.
	stuck := AdaptiveOptions{DtMin: 1e-30, DtMax: 1e-12, MaxDV: 1e-18, DtInit: 1e-12}
	requireOracleRun(t, "RC, never accepted", func(o Options) *Engine { return buildRC(o, 0) }, DefaultOptions(), 3e-9, stuck)
	t.Logf("%d recorded points identical", points)
}
