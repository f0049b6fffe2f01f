// Package sweep is the batched MIS scenario engine: it enumerates
// skew/slew/load grids for the fully-modeled multi-input cells and
// evaluates every point through the shared characterization cache on a
// worker pool, producing the paper's delay-vs-skew surfaces (plus output
// slew and peak load current) instead of the handful of hand-picked
// scenarios the experiment suite covers.
//
// Each grid point is one canonical MIS event (cells.SkewedPairInputs):
// input A switches at Config.TBase, input B at TBase+skew, in the
// direction that conducts through the cell's series stack — rising for
// the NAND family, falling for the NOR family — so the surface exercises
// exactly the stack effect the MCSM models. A configurable sample of
// points is additionally simulated at flat transistor level
// (csm.ReferenceStage) and aggregated into MCSM-vs-SPICE error statistics.
//
// Determinism contract: a sweep's Surface is bit-identical regardless of
// the worker-pool width (enforced by test, same guarantee internal/engine
// makes for STA). Points are independent, results land in a slice indexed
// by the canonical grid order, and reference sampling is by point index.
package sweep

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// Config scopes a sweep run.
type Config struct {
	Tech    cells.Tech
	CharCfg csm.Config // characterization fidelity (cache key)
	Dt      float64    // stage integration step (default 1 ps)
	TBase   float64    // arrival time of input A (default 1 ns)
	Settle  float64    // window kept after the last input event (default 2 ns)
	// RefEvery samples every Nth grid point with a flat transistor-level
	// reference for the error statistics (0 disables reference sampling).
	RefEvery int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Tech.Name == "" {
		c.Tech = cells.Default130()
	}
	if c.Dt <= 0 {
		c.Dt = 1e-12
	}
	if c.TBase <= 0 {
		c.TBase = 1e-9
	}
	if c.Settle <= 0 {
		c.Settle = 2e-9
	}
	return c
}

// PointResult is the measured outcome of one grid point. Delay and output
// slew follow the MIS convention: delay is measured from the 50% crossing
// of the *latest* switching input to the 50% crossing of the output, slew
// is the output's 10–90% transition time. PeakCurrent is the peak
// magnitude of the current delivered into the capacitive load
// (Load·|dVout/dt|). RefDelay is the flat transistor-level delay at
// sampled points and NaN elsewhere.
type PointResult struct {
	Point
	Delay       float64
	OutSlew     float64
	PeakCurrent float64
	RefDelay    float64
}

// ErrStats aggregates MCSM-vs-flat-SPICE delay errors over the sampled
// points of one surface.
type ErrStats struct {
	RefPoints  int     `json:"ref_points"`
	MeanAbsErr float64 `json:"mean_abs_err_s"`
	MaxAbsErr  float64 `json:"max_abs_err_s"`
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxErrAt   Point   `json:"max_err_at"`
}

// Surface is one cell's sweep outcome: the grid, the per-point results in
// canonical order, and the aggregated error statistics.
type Surface struct {
	Cell    string        `json:"cell"`
	Kind    string        `json:"kind"`
	Rising  bool          `json:"output_rising"` // direction of the measured output transition
	TEnd    float64       `json:"t_end"`         // shared simulation window of every point
	Grid    Grid          `json:"grid"`
	Results []PointResult `json:"results"`
	Stats   ErrStats      `json:"stats"`
}

// Runner evaluates sweeps on an engine's worker pool, characterizing
// through its shared ModelCache.
type Runner struct {
	eng        *engine.Engine
	cfg        Config
	pointEvals atomic.Int64
	refEvals   atomic.Int64
}

// New returns a runner. A nil engine allocates a default one
// (GOMAXPROCS-wide pool, fresh in-memory cache).
func New(eng *engine.Engine, cfg Config) *Runner {
	if eng == nil {
		eng = engine.New(0, nil)
	}
	return &Runner{eng: eng, cfg: cfg.withDefaults()}
}

// Engine returns the underlying evaluation engine.
func (r *Runner) Engine() *engine.Engine { return r.eng }

// PointEvals reports the cumulative number of model stage simulations the
// runner has executed — the sweep throughput counter.
func (r *Runner) PointEvals() int64 { return r.pointEvals.Load() }

// RefEvals reports the cumulative number of flat transistor-level
// reference simulations.
func (r *Runner) RefEvals() int64 { return r.refEvals.Load() }

// DefaultCells lists the catalog cells a sweep covers: every fully-modeled
// cell with at least two model inputs (NAND2 and NOR2 in the current
// library — cells with held pins cannot carry a two-input MIS event).
func DefaultCells() []string {
	var out []string
	for _, s := range cells.Catalog() {
		if s.FullyModeled() && len(s.ModelInputs) >= 2 {
			out = append(out, s.Name)
		}
	}
	return out
}

// Sweep evaluates the grid for one cell. The model comes from the shared
// cache (characterized at most once per cache); the points are fanned out
// over the engine's worker pool. On error no surface is produced; the
// lowest-index error among the points evaluated before the pool drained
// is reported (with one failing point that is the serial path's error;
// with several concurrent failures, different worker counts may surface
// different ones — the same caveat the engine's level scheduler carries).
func (r *Runner) Sweep(cell string, grid Grid) (*Surface, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	spec, err := cells.Get(cell)
	if err != nil {
		return nil, err
	}
	if !spec.FullyModeled() || len(spec.ModelInputs) < 2 {
		return nil, fmt.Errorf("sweep: cell %s is not a fully-modeled multi-input cell", cell)
	}
	// Every input event must fall strictly inside the simulation window:
	// a skew that drags input B's transition to or before t=0 would
	// silently degenerate into the same single-input arc while still being
	// labeled with the requested skew.
	if earliest := r.cfg.TBase + grid.MinSkew(); earliest <= 0 {
		return nil, fmt.Errorf("sweep: skew %g precedes the simulation start (input A switches at %g s; widen Config.TBase)",
			grid.MinSkew(), r.cfg.TBase)
	}
	// One shared window for the whole grid: every waveform covers the
	// worst-case (latest, slowest) event plus the settle time. A window
	// no stage solve could step through fails before characterization.
	tEnd := r.cfg.TBase + grid.MaxSkew() + grid.MaxSlew() + r.cfg.Settle
	if _, err := spice.FixedSteps(0, tEnd, r.cfg.Dt); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	model, err := r.eng.Cache().Get(r.cfg.Tech, spec, engine.KindFor(spec), r.cfg.CharCfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: characterize %s: %w", cell, err)
	}

	inRising := spec.NonControllingHigh // NAND family: inputs rise; NOR family: inputs fall

	n := grid.Size()
	results := make([]PointResult, n)
	errs := make([]error, n)

	workers := r.eng.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = r.evalPoint(model, spec, grid.At(i), inRising, tEnd, r.sampleRef(i))
			if errs[i] != nil {
				break
			}
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					if failed.Load() {
						continue // drain: a point already failed, skip the expensive sims
					}
					results[i], errs[i] = r.evalPoint(model, spec, grid.At(i), inRising, tEnd, r.sampleRef(i))
					if errs[i] != nil {
						failed.Store(true)
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("sweep: %s point %d (skew=%g slew=%g load=%g): %w",
				cell, i, grid.At(i).Skew, grid.At(i).Slew, grid.At(i).Load, errs[i])
		}
	}

	return &Surface{
		Cell:    cell,
		Kind:    engine.KindFor(spec).String(),
		Rising:  !inRising,
		TEnd:    tEnd,
		Grid:    grid,
		Results: results,
		Stats:   computeStats(results),
	}, nil
}

// SweepAll sweeps the grid for every named cell (nil selects
// DefaultCells), returning surfaces in input order.
func (r *Runner) SweepAll(cellNames []string, grid Grid) ([]*Surface, error) {
	if len(cellNames) == 0 {
		cellNames = DefaultCells()
	}
	surfaces := make([]*Surface, 0, len(cellNames))
	for _, cell := range cellNames {
		s, err := r.Sweep(cell, grid)
		if err != nil {
			return nil, err
		}
		surfaces = append(surfaces, s)
	}
	return surfaces, nil
}

// sampleRef decides, by canonical point index, whether a point gets a flat
// transistor-level reference.
func (r *Runner) sampleRef(i int) bool {
	return r.cfg.RefEvery > 0 && i%r.cfg.RefEvery == 0
}

// evalPoint runs one grid point: the model stage simulation, the standard
// measurements, and (when sampled) the flat reference.
func (r *Runner) evalPoint(m *csm.Model, spec cells.Spec, p Point, inRising bool, tEnd float64, withRef bool) (PointResult, error) {
	vdd := r.cfg.Tech.Vdd
	wa, wb := cells.SkewedPairInputs(vdd, inRising, r.cfg.TBase, p.Skew, p.Slew, tEnd)
	inputs := []wave.Waveform{wa, wb}

	sr, err := csm.SimulateStage(m, inputs, csm.CapLoad(p.Load), 0, tEnd, r.cfg.Dt)
	if err != nil {
		return PointResult{}, err
	}
	r.pointEvals.Add(1)

	res := PointResult{Point: p, RefDelay: math.NaN()}
	outRising := !inRising
	tFirst := r.cfg.TBase + math.Min(0, p.Skew)
	tLast := r.cfg.TBase + math.Max(0, p.Skew) + p.Slew/2
	res.Delay = measureDelay(sr.Out, vdd, outRising, tFirst, tLast)
	if s, serr := wave.TransitionTime(sr.Out, vdd, outRising, 0.1, 0.9, tFirst); serr == nil {
		res.OutSlew = s
	} else {
		res.OutSlew = math.NaN()
	}
	res.PeakCurrent = peakLoadCurrent(sr.Out, p.Load)

	if withRef {
		refOut, err := csm.ReferenceStage(r.cfg.Tech, m, inputs, csm.CapLoad(p.Load), tEnd, r.cfg.Dt)
		if err != nil {
			return PointResult{}, fmt.Errorf("flat reference: %w", err)
		}
		r.refEvals.Add(1)
		res.RefDelay = measureDelay(refOut, vdd, outRising, tFirst, tLast)
	}
	return res, nil
}

// measureDelay returns the latest-input-to-output 50% delay, NaN when the
// output never crosses after the first input event.
func measureDelay(out wave.Waveform, vdd float64, rising bool, tFirst, tLast float64) float64 {
	tOut, err := wave.OutputCross50(out, vdd, rising, tFirst)
	if err != nil {
		return math.NaN()
	}
	return tOut - tLast
}

// peakLoadCurrent returns the peak magnitude of C·dV/dt over the window —
// the largest current the stage delivers into its capacitive load.
func peakLoadCurrent(out wave.Waveform, load float64) float64 {
	d := out.Derivative()
	if d.Empty() {
		return 0
	}
	min, max := d.Extremum(d.Start(), d.End())
	return load * math.Max(math.Abs(min), math.Abs(max))
}

// computeStats aggregates the delay errors of the reference-sampled points.
func computeStats(results []PointResult) ErrStats {
	var st ErrStats
	var sumAbs, sumRel float64
	rel := 0
	for _, pr := range results {
		if math.IsNaN(pr.RefDelay) || math.IsNaN(pr.Delay) {
			continue
		}
		st.RefPoints++
		abs := math.Abs(pr.Delay - pr.RefDelay)
		sumAbs += abs
		if abs > st.MaxAbsErr {
			st.MaxAbsErr = abs
			st.MaxErrAt = pr.Point
		}
		if pr.RefDelay != 0 {
			sumRel += abs / math.Abs(pr.RefDelay)
			rel++
		}
	}
	if st.RefPoints > 0 {
		st.MeanAbsErr = sumAbs / float64(st.RefPoints)
	}
	if rel > 0 {
		st.MeanRelErr = sumRel / float64(rel)
	}
	return st
}

// SurfacesIdentical is the determinism contract's equality for sweeps:
// bit-for-bit agreement on the cell, kind, direction, window, grid, every
// result field, and the statistics. Floats are compared by bit pattern so
// identical NaNs (unsampled reference points) count as equal. Nil
// surfaces are handled: two nils are identical, a nil and a non-nil are
// not.
func SurfacesIdentical(a, b *Surface) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Cell != b.Cell || a.Kind != b.Kind || a.Rising != b.Rising || !sameBits(a.TEnd, b.TEnd) {
		return false
	}
	if !sameFloats(a.Grid.Skews, b.Grid.Skews) || !sameFloats(a.Grid.Slews, b.Grid.Slews) || !sameFloats(a.Grid.Loads, b.Grid.Loads) {
		return false
	}
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if !sameBits(ra.Skew, rb.Skew) || !sameBits(ra.Slew, rb.Slew) || !sameBits(ra.Load, rb.Load) ||
			!sameBits(ra.Delay, rb.Delay) || !sameBits(ra.OutSlew, rb.OutSlew) ||
			!sameBits(ra.PeakCurrent, rb.PeakCurrent) || !sameBits(ra.RefDelay, rb.RefDelay) {
			return false
		}
	}
	sa, sb := a.Stats, b.Stats
	return sa.RefPoints == sb.RefPoints && sameBits(sa.MeanAbsErr, sb.MeanAbsErr) &&
		sameBits(sa.MaxAbsErr, sb.MaxAbsErr) && sameBits(sa.MeanRelErr, sb.MeanRelErr) &&
		sameBits(sa.MaxErrAt.Skew, sb.MaxErrAt.Skew) && sameBits(sa.MaxErrAt.Slew, sb.MaxErrAt.Slew) &&
		sameBits(sa.MaxErrAt.Load, sb.MaxErrAt.Load)
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}
