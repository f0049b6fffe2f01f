package csm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// harness is a characterization bench: one transistor-level cell with
// voltage sources attached to its modeled inputs, its output, and — when
// pinInternal is set — its internal node, exactly as §3.3 prescribes.
// Sources use mutable DC stimuli so thousands of sweep points reuse one
// circuit/engine pair; ramp extractions temporarily swap in a waveform.
type harness struct {
	tech cells.Tech
	spec cells.Spec
	ckt  *spice.Circuit
	eng  *spice.Engine
	inst cells.Instance

	srcIn   []*spice.VSource
	stimIn  []*spice.SetDC
	srcOut  *spice.VSource
	stimOut *spice.SetDC
	srcN    *spice.VSource
	stimN   *spice.SetDC

	inNodes []spice.Node // modeled input nodes, model order
	outNode spice.Node
	nNode   spice.Node // internal node (0 when the cell has none)

	// Fast-path state (Config.Fast). warm carries the previous DC
	// solution so neighboring grid points seed each other's Newton;
	// dtSeed carries the previous ramp's accepted-step history so the
	// next adaptive run skips the grow-from-minimum transient.
	fast   bool
	warm   []float64
	dtSeed float64
}

// newHarness builds the bench. modelInputs selects which pins get sweep
// sources; all other input pins are parked at the spec's non-controlling
// level. When pinInternal is true the spec's internal node is also pinned.
// fast enables the approximate solver path (chord Newton, warm starts,
// adaptive ramp stepping); off, every solve matches the golden-pinned
// exact numerics.
func newHarness(tech cells.Tech, spec cells.Spec, modelInputs []string, pinInternal, fast bool) (*harness, error) {
	h := &harness{tech: tech, spec: spec, fast: fast}
	c := spice.NewCircuit()
	vdd := c.Node("vdd")
	c.AddVSource("VDD", vdd, spice.Ground, spice.DC(tech.Vdd))

	modeled := make(map[string]bool, len(modelInputs))
	for _, pin := range modelInputs {
		modeled[pin] = true
	}
	inputNodes := make([]spice.Node, len(spec.Inputs))
	for i, pin := range spec.Inputs {
		inputNodes[i] = c.Node("in_" + pin)
		if modeled[pin] {
			continue
		}
		c.AddVSource("V"+pin, inputNodes[i], spice.Ground, spice.DC(spec.NonControllingLevelFor(pin, tech.Vdd)))
	}
	// Sweep sources in modelInputs order.
	for _, pin := range modelInputs {
		idx := -1
		for i, p := range spec.Inputs {
			if p == pin {
				idx = i
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("csm: model input %q not a pin of %s", pin, spec.Name)
		}
		stim := &spice.SetDC{}
		h.stimIn = append(h.stimIn, stim)
		h.srcIn = append(h.srcIn, c.AddVSource("V"+pin, inputNodes[idx], spice.Ground, stim))
		h.inNodes = append(h.inNodes, inputNodes[idx])
	}

	out := c.Node("out")
	h.outNode = out
	h.stimOut = &spice.SetDC{}
	h.srcOut = c.AddVSource("VOUT", out, spice.Ground, h.stimOut)

	h.inst = spec.Build(c, tech, "X", inputNodes, out, vdd, spec.Drive)
	if spec.Internal != "" {
		h.nNode = h.inst.Internal[spec.Internal]
	}

	if pinInternal {
		if spec.Internal == "" {
			return nil, fmt.Errorf("csm: cell %s has no internal node to pin", spec.Name)
		}
		n, ok := h.inst.Internal[spec.Internal]
		if !ok {
			return nil, fmt.Errorf("csm: cell %s instance lacks internal node %q", spec.Name, spec.Internal)
		}
		h.stimN = &spice.SetDC{}
		h.srcN = c.AddVSource("VN", n, spice.Ground, h.stimN)
	}

	h.ckt = c
	opt := spice.DefaultOptions()
	// Backward Euler: the extraction ramps drive capacitances directly
	// between ideal sources, where trapezoidal companions ring between 0
	// and 2·C·s around the true C·s (nothing damps them in a fully pinned
	// network). BE is exact for constant-slope excitation of a capacitor.
	opt.Method = spice.BackwardEuler
	if fast {
		// Chord Newton: reuse LU factors for up to 3 iterations while the
		// residual keeps contracting. Characterization solves are mildly
		// nonlinear steps from good guesses — exactly chord's sweet spot.
		opt.JacobianLag = 3
	}
	h.eng = spice.NewEngine(c, opt)
	return h, nil
}

// newHarnesses builds one bench per shard (see newHarness): a worker owns
// its bench for the whole characterization, so no circuit or engine state
// is ever shared between goroutines.
func newHarnesses(shards int, tech cells.Tech, spec cells.Spec, modelInputs []string, pinInternal, fast bool) ([]*harness, error) {
	hs := make([]*harness, shards)
	for w := range hs {
		h, err := newHarness(tech, spec, modelInputs, pinInternal, fast)
		if err != nil {
			return nil, err
		}
		hs[w] = h
	}
	return hs, nil
}

// failUnit, when set by a test, runs before every unit shard hands out
// and fails the unit with its error.
var failUnit func(u int) error

// shard runs fn(w, u) for every unit u in [0, n) on one goroutine per
// harness worker w (at most n of them). Units are handed out in index
// order, so one worker is exactly the serial loop over the units.
//
// Units must be independent: the exact path's are, because every DC
// solve starts from DCAt's initial guess and every ramp from its own DC
// solve with reset capacitor histories, so a unit's result depends only
// on its set point, never on which harness ran it or what ran before.
// Results go into caller-owned slots indexed by u; a caller that sums
// across units reduces those slots in unit order afterwards.
//
// On failure shard returns the error of the lowest failing unit — the
// one the serial loop stops at — so the error text never depends on
// scheduling (a ModelCache caches it). Once a failure is recorded no
// worker starts a unit above it; units below it still run, as one of
// them may fail too. Every worker has exited when shard returns.
func shard(workers, n int, fn func(w, u int) error) error {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		failAt  = n
		failErr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1) - 1)
				mu.Lock()
				stop := u >= failAt
				mu.Unlock()
				if stop {
					return
				}
				var err error
				if failUnit != nil {
					err = failUnit(u)
				}
				if err == nil {
					err = fn(w, u)
				}
				if err != nil {
					mu.Lock()
					if u < failAt {
						failAt, failErr = u, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return failErr
}

// dcSolve computes the operating point at the current stimulus settings.
// In fast mode Newton warm-starts from the previous point's solution —
// neighboring sweep points differ by one grid increment — and the result
// is retained as the next seed; DCFrom falls back to the full homotopy
// ladder internally if the warm start diverges.
func (h *harness) dcSolve() ([]float64, error) {
	if !h.fast {
		return h.eng.DCAt(0)
	}
	var x []float64
	var err error
	if h.warm != nil {
		x, err = h.eng.DCFrom(h.warm, 0)
	} else {
		x, err = h.eng.DCAt(0)
	}
	if err != nil {
		h.warm = nil
		return nil, err
	}
	h.warm = x
	return x, nil
}

// source returns the sweep source pinning model axis a (the modeled
// inputs, then the internal node when it is pinned, then the output) and
// the DC stimulus it holds between ramps.
func (h *harness) source(a int) (*spice.VSource, *spice.SetDC) {
	switch {
	case a < len(h.srcIn):
		return h.srcIn[a], h.stimIn[a]
	case a == len(h.srcIn) && h.srcN != nil:
		return h.srcN, h.stimN
	}
	return h.srcOut, h.stimOut
}

// setPoint assigns the DC sweep values. vn is ignored when the internal
// node is not pinned.
func (h *harness) setPoint(vin []float64, vn, vo float64) {
	for i := range h.stimIn {
		h.stimIn[i].V = vin[i]
	}
	h.stimOut.V = vo
	if h.stimN != nil {
		h.stimN.V = vn
	}
}

// dcCurrents solves the operating point and returns the currents the cell
// injects into the output node and (when pinned) the internal node. The
// VSource branch current is the current flowing from the node into the
// source, which by KCL equals the cell's injection.
func (h *harness) dcCurrents() (io, in float64, err error) {
	x, err := h.dcSolve()
	if err != nil {
		return 0, 0, err
	}
	io = x[h.srcOut.AuxIndex()]
	if h.srcN != nil {
		in = x[h.srcN.AuxIndex()]
	}
	return io, in, nil
}

// rampSpec describes one capacitance-extraction transient: the model axis
// whose source is ramped, the span it covers, and the sweep timing.
type rampSpec struct {
	axis   int     // ramped model axis (see harness.source)
	lo, hi float64 // table axis span to sample
	pad    float64 // extra drive beyond the span so samples sit on constant slope
	slope  float64 // V/s
	tFlat  float64 // settle time before the ramp starts
}

// timeOf returns the time at which the ramp crosses voltage v.
func (rs rampSpec) timeOf(v float64) float64 {
	return rs.tFlat + (v-(rs.lo-rs.pad))/rs.slope
}

// runRamp performs the transient and returns its record of keep, the
// unknowns the caller reads (the branch currents it measures).
//
// The caller reads the record at times up to until (Waveform.At), so the
// exact run ends at its first sample strictly later than until: the
// prefix answers every such read as the full record would (see
// readThrough). The fast path runs to the end, because its accepted
// steps seed the next ramp.
func (h *harness) runRamp(rs rampSpec, dt, until float64, keep ...int) (*spice.Result, error) {
	loPad := rs.lo - rs.pad
	hiPad := rs.hi + rs.pad
	duration := (hiPad - loPad) / rs.slope
	end := rs.tFlat + duration + rs.tFlat
	src, stim := h.source(rs.axis)
	src.SetStimulus(wave.SaturatedRamp(loPad, hiPad, rs.tFlat, duration, end))
	defer src.SetStimulus(stim)

	var res *spice.Result
	var err error
	if h.fast {
		res, err = h.runRampFast(end, dt, keep)
	} else {
		res, err = h.eng.RunUntil(0, end, dt, readThrough(until), keep...)
	}
	if err != nil {
		return nil, fmt.Errorf("csm: ramp extraction: %w", err)
	}
	return res, nil
}

// readThrough is the stop check of a run whose record is read at times up
// to until: it ends the run at the first sample strictly later than
// until. Waveform.At(t) reads a prefix exactly as the full record when a
// sample lies past t: it interpolates the same segment. A prefix ending
// at a sample equal to t would return that sample where the full record
// interpolates V[k-1] + 1·(V[k]−V[k-1]), which can differ in the last bit.
func readThrough(until float64) func(*spice.Result) bool {
	return func(r *spice.Result) bool { return r.Times[len(r.Times)-1] > until }
}

// runRampFast is the Config.Fast transient: a warm-started DC solve
// followed by ΔV-adaptive stepping whose first step is seeded from the
// previous ramp's accepted-step history. The ΔV bound (Vdd/24, ≈50 mV at
// 1.2 V) keeps the sampled current waveform resolved through the ramp
// while flat settle intervals coast at up to 16·dt.
func (h *harness) runRampFast(end, dt float64, keep []int) (*spice.Result, error) {
	x0, err := h.dcSolve()
	if err != nil {
		return nil, err
	}
	aopt := spice.AdaptiveOptions{
		DtMin:  dt / 2,
		DtMax:  dt * 16,
		MaxDV:  h.tech.Vdd / 24,
		DtInit: h.dtSeed,
	}
	g, err := spice.NewAdaptive(0, end, aopt)
	if err != nil {
		return nil, err
	}
	res, err := h.eng.RunFrom(x0, g, nil, keep...)
	if err != nil {
		return nil, err
	}
	h.dtSeed = seedStep(res.Times, aopt.DtMin, aopt.DtMax)
	return res, nil
}

// seedStep distills a run's accepted time points into the next run's
// initial step: the median accepted step, clamped to the adaptive window.
// The median (not the mean) ignores both the start-up ramp from DtMin and
// the long coasting steps of the settle tails.
func seedStep(times []float64, dtMin, dtMax float64) float64 {
	if len(times) < 3 {
		return 0
	}
	diffs := make([]float64, len(times)-1)
	for i := 1; i < len(times); i++ {
		diffs[i-1] = times[i] - times[i-1]
	}
	sort.Float64s(diffs)
	med := diffs[len(diffs)/2]
	if med < dtMin {
		med = dtMin
	}
	if med > dtMax {
		med = dtMax
	}
	return med
}
