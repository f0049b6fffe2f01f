package spice

import (
	"fmt"
	"math"
)

// Options configures the solver.
type Options struct {
	// Gmin is the minimum conductance tied from every node to ground; it
	// keeps floating nodes (e.g. a cutoff stack node) non-singular. The
	// resulting leak (≈1 ms time constant against fF nodes) is far outside
	// the nanosecond windows simulated here.
	Gmin float64
	// AbsTol/RelTol terminate Newton when every unknown moves less than
	// AbsTol + RelTol·|x|.
	AbsTol float64
	RelTol float64
	// MaxIter bounds Newton iterations per solve.
	MaxIter int
	// MaxStepV limits the per-iteration update magnitude on voltage
	// unknowns (classic damping for MOS exponentials).
	MaxStepV float64
	// Method selects the transient integration rule (default Trapezoidal;
	// the first step after DC always uses backward Euler to damp the
	// trapezoidal start-up ringing).
	Method Method
	// JacobianLag enables chord (lagged-Jacobian) Newton: after a fresh
	// factorization, up to JacobianLag subsequent iterations reuse the LU
	// factors and only reassemble the right-hand side, refactorizing as
	// soon as the residual stops contracting (or the step goes
	// non-finite). 0 — the default — factorizes every iteration and is the
	// golden-pinned exact path.
	JacobianLag int
}

// chordContraction is the fallback rule of chord mode: a lagged-Jacobian
// iteration is only allowed while the previous iteration shrank the
// residual to below this fraction of its predecessor's; otherwise the
// factors are stale and Newton refactorizes.
const chordContraction = 0.9

// DefaultOptions returns the solver configuration used throughout the
// repository.
func DefaultOptions() Options {
	return Options{
		Gmin:     1e-12,
		AbsTol:   1e-9,
		RelTol:   1e-6,
		MaxIter:  150,
		MaxStepV: 0.3,
		Method:   Trapezoidal,
	}
}

// Engine binds a circuit to solver options and preassigned unknown indices.
type Engine struct {
	ckt      *Circuit
	opt      Options
	nNodes   int // excluding ground
	nAux     int
	steppers []Stepper

	// Per-engine Newton workspace: two assembly targets (swapped by the
	// line-search assembly-reuse optimization), the linear-solver scratch,
	// and the step vectors. Everything is reused across all solves so the
	// inner loop allocates nothing. An Engine is therefore not safe for
	// concurrent use — it never was: element histories already serialize
	// it.
	sysA, sysB *System
	solver     *SolveWorkspace
	x0, dir    []float64
	xChord     []float64

	// Chord-Newton (Options.JacobianLag) state, reset per newton call.
	chordAge int
	fPrev    float64

	// The transient loop's state and step vectors, reset per run.
	ctxRun         Context
	xRun, xPrevRun []float64
}

// NewEngine prepares a circuit for analysis, assigning auxiliary unknown
// indices. The circuit must not gain elements afterwards, unless Rebind
// follows.
func NewEngine(c *Circuit, opt Options) *Engine {
	e := &Engine{ckt: c, opt: opt}
	e.Rebind()
	return e
}

// Rebind re-reads the engine's circuit after elements were removed
// (Circuit.Truncate) or added: it assigns auxiliary unknown indices and
// collects the steppers anew, and it keeps the workspace unless the
// unknown count changed. An engine that is rebound to each new load of
// one circuit solves as a new engine would, without allocating one.
func (e *Engine) Rebind() {
	e.nNodes = e.ckt.NumNodes() - 1
	clear(e.steppers)
	e.steppers = e.steppers[:0]
	base := e.nNodes
	for _, el := range e.ckt.Elements() {
		if au, ok := el.(AuxUser); ok {
			au.SetAuxBase(base)
			base += au.AuxCount()
		}
		if st, ok := el.(Stepper); ok {
			e.steppers = append(e.steppers, st)
		}
	}
	e.nAux = base - e.nNodes
	n := e.Unknowns()
	if e.sysA != nil && e.sysA.N == n {
		return
	}
	e.sysA = NewSystem(n)
	e.sysB = NewSystem(n)
	e.solver = NewSolveWorkspace(n)
	e.x0 = make([]float64, n)
	e.dir = make([]float64, n)
	e.xChord = make([]float64, n)
	e.xRun = make([]float64, n)
	e.xPrevRun = make([]float64, n)
}

// Unknowns returns the total unknown count (node voltages + auxiliaries).
func (e *Engine) Unknowns() int { return e.nNodes + e.nAux }

// assemble stamps the full linearized system at ctx.X into sys.
func (e *Engine) assemble(sys *System, ctx *Context, gmin float64) {
	sys.Clear()
	for i := 0; i < e.nNodes; i++ {
		sys.AddA(i, i, gmin)
	}
	for _, el := range e.ckt.Elements() {
		el.Stamp(sys, ctx)
	}
}

// residualNorm returns ‖J·x − b‖₂ for a freshly assembled system. Because
// elements stamp b += J·x₀ − F(x₀), this equals ‖F(x₀)‖: the true nonlinear
// KCL residual at the assembly point.
func residualNorm(sys *System, x []float64) float64 {
	n := sys.N
	var sum float64
	for i := 0; i < n; i++ {
		r := -sys.B[i]
		arow := sys.A[i*n : i*n+n : i*n+n]
		for j, v := range arow {
			r += v * x[j]
		}
		sum += r * r
	}
	return math.Sqrt(sum)
}

// chordStep computes x − J₀⁻¹·F(x) against the solver workspace's retained
// LU factors, where F(x)_i = Σⱼ A_ij·x_j − b_i is the exact nonlinear
// residual of the freshly assembled system — only the Jacobian is lagged,
// never the right-hand side. It returns nil when the result is non-finite,
// in which case the caller falls back to a fresh factorization.
func (e *Engine) chordStep(sys *System, x []float64) []float64 {
	ws := e.solver
	n := sys.N
	for i := 0; i < n; i++ {
		sum := -sys.B[i]
		arow := sys.A[i*n : i*n+n : i*n+n]
		for j, v := range arow {
			sum += v * x[j]
		}
		ws.r[i] = sum
	}
	ws.fact.solveInto(ws.r, ws.d)
	out := e.xChord
	for i := 0; i < n; i++ {
		out[i] = x[i] - ws.d[i]
		if math.IsNaN(out[i]) || math.IsInf(out[i], 0) {
			return nil
		}
	}
	return out
}

// newton iterates to convergence at the context's time/mode, starting from
// ctx.X, with the extra gmin added on node diagonals. On success ctx.X
// holds the solution.
//
// The iteration is globalized two ways: the proposed update is first scaled
// so no node voltage moves more than MaxStepV, and then a backtracking line
// search on the nonlinear residual norm rejects steps that do not make
// progress — this is what tames the subthreshold-exponential oscillations
// of floating stacked nodes (e.g. a NOR3 with all inputs high).
//
// Two reuse mechanisms keep the loop cheap. First — always on, and exact:
// when the line search accepts its last-assembled trial point, the
// accepted ctx.X recomputes to bit-identical values, so the trial system
// and its residual carry over to the next iteration (one full
// assemble+residualNorm saved; Stamp is deterministic and stateless within
// a step, so the carried system equals what reassembly would produce).
// Second — opt-in via Options.JacobianLag: chord iterations reuse the LU
// factors while the residual contracts (see chordStep).
func (e *Engine) newton(ctx *Context, gmin float64) error {
	n := e.Unknowns()
	sysA, sysB := e.sysA, e.sysB
	x0, dir := e.x0, e.dir
	lag := e.opt.JacobianLag
	e.chordAge = 0
	e.fPrev = math.Inf(1)
	haveAssembly := false
	var f0 float64
	for iter := 0; iter < e.opt.MaxIter; iter++ {
		// f0, the residual norm of the current assembly, is read by the
		// chord test and the line search only: without chord mode it is
		// computed when the line search needs it, so an iteration that
		// converges on its full step never computes it.
		haveF0 := haveAssembly
		if !haveAssembly {
			e.assemble(sysA, ctx, gmin)
			if lag > 0 {
				f0, haveF0 = residualNorm(sysA, ctx.X), true
			}
		}
		haveAssembly = false
		var xNew []float64
		chord := lag > 0 && iter > 0 && e.chordAge < lag && f0 < e.fPrev*chordContraction
		if chord {
			xNew = e.chordStep(sysA, ctx.X)
			if xNew == nil {
				chord = false // non-finite chord step: refactorize fresh
			}
		}
		if chord {
			e.chordAge++
		} else {
			var err error
			xNew, err = sysA.SolveWith(e.solver)
			if err != nil {
				return fmt.Errorf("spice: %w at t=%g iter=%d", err, ctx.Time, iter)
			}
			e.chordAge = 0
		}
		e.fPrev = f0
		copy(x0, ctx.X)
		maxMove := 0.0
		for i := 0; i < n; i++ {
			dir[i] = xNew[i] - x0[i]
			if i < e.nNodes {
				if d := math.Abs(dir[i]); d > maxMove {
					maxMove = d
				}
			}
		}
		scale := 1.0
		if maxMove > e.opt.MaxStepV {
			scale = e.opt.MaxStepV / maxMove
		}
		// If the full Newton step is already within tolerance the iteration
		// has converged; accept it outright. (Checking before the line
		// search matters: at the numerical residual floor the search cannot
		// measure improvement and would otherwise never terminate.)
		if scale == 1.0 {
			converged := true
			for i := 0; i < n; i++ {
				tol := e.opt.AbsTol + e.opt.RelTol*math.Abs(xNew[i])
				if math.Abs(dir[i]) > tol {
					converged = false
					break
				}
			}
			if converged {
				copy(ctx.X, xNew)
				return nil
			}
		}
		// Backtracking line search: accept the first scale that reduces the
		// residual; fall back to the best seen so the iteration keeps
		// moving even on shallow landscapes. ctx.X still equals x0 and
		// sysA is untouched by the solve, so a deferred f0 is the value an
		// eager one would have been.
		if !haveF0 {
			f0 = residualNorm(sysA, x0)
		}
		bestScale, bestF := scale, math.Inf(1)
		s := scale
		sLast, fLast := math.NaN(), math.Inf(1)
		for k := 0; k < 8; k++ {
			for i := 0; i < n; i++ {
				ctx.X[i] = x0[i] + s*dir[i]
			}
			e.assemble(sysB, ctx, gmin)
			f1 := residualNorm(sysB, ctx.X)
			sLast, fLast = s, f1
			if f1 < bestF {
				bestF, bestScale = f1, s
			}
			if f1 <= f0*0.999+1e-18 {
				break
			}
			s /= 2
		}
		for i := 0; i < n; i++ {
			ctx.X[i] = x0[i] + bestScale*dir[i]
		}
		if bestScale == sLast {
			// The accepted point recomputes bit-identically to the last
			// trial, so sysB already holds next iteration's assembly and
			// fLast its residual.
			sysA, sysB = sysB, sysA
			f0 = fLast
			haveAssembly = true
		}
	}
	return fmt.Errorf("spice: newton did not converge at t=%g after %d iterations", ctx.Time, e.opt.MaxIter)
}

// DCAt computes the operating point with sources evaluated at time t.
// It first attempts a direct Newton solve, then gmin stepping, then source
// stepping. The returned slice is the full unknown vector.
func (e *Engine) DCAt(t float64) ([]float64, error) {
	n := e.Unknowns()
	x := make([]float64, n)
	for _, el := range e.ckt.Elements() {
		if ini, ok := el.(Initializer); ok {
			ini.InitGuess(x)
		}
	}
	ctx := &Context{Mode: ModeDC, Time: t, SrcScale: 1, X: x, Xprev: make([]float64, n)}

	if err := e.newton(ctx, e.opt.Gmin); err == nil {
		return ctx.X, nil
	}

	// Gmin stepping: solve with a large parallel conductance, then relax it
	// decade by decade, warm-starting each solve.
	for i := range ctx.X {
		ctx.X[i] = 0
	}
	ok := true
	for gmin := 1e-3; ; gmin /= 10 {
		if gmin < e.opt.Gmin {
			gmin = e.opt.Gmin
		}
		if err := e.newton(ctx, gmin); err != nil {
			ok = false
			break
		}
		if gmin == e.opt.Gmin {
			break
		}
	}
	if ok {
		return ctx.X, nil
	}

	// Source stepping: ramp all sources from zero.
	for i := range ctx.X {
		ctx.X[i] = 0
	}
	const steps = 25
	for k := 1; k <= steps; k++ {
		ctx.SrcScale = float64(k) / steps
		if err := e.newton(ctx, e.opt.Gmin); err != nil {
			return nil, fmt.Errorf("spice: DC failed at source scale %.2f: %w", ctx.SrcScale, err)
		}
	}
	return ctx.X, nil
}

// DCFrom computes the operating point at time t with Newton warm-started
// from the supplied unknown vector — typically the previous grid point's
// solution during batched characterization, where neighboring operating
// points differ by one small sweep increment. On any failure (or a
// mis-sized seed) it falls back to the full DCAt homotopy ladder.
func (e *Engine) DCFrom(seed []float64, t float64) ([]float64, error) {
	n := e.Unknowns()
	if len(seed) != n {
		return e.DCAt(t)
	}
	x := make([]float64, n)
	copy(x, seed)
	ctx := &Context{Mode: ModeDC, Time: t, SrcScale: 1, X: x, Xprev: make([]float64, n)}
	if err := e.newton(ctx, e.opt.Gmin); err == nil {
		return ctx.X, nil
	}
	return e.DCAt(t)
}

// Run performs a transient analysis from start to stop with fixed step dt,
// computing the initial condition from a DC solve at start. keep lists the
// unknown indices to record at every step; with none, every node voltage
// and auxiliary unknown is recorded.
func (e *Engine) Run(start, stop, dt float64, keep ...int) (*Result, error) {
	return e.RunUntil(start, stop, dt, nil, keep...)
}

// RunUntil is Run with a stop check: after each recorded step, done sees
// the record so far, and the run ends there when it returns true. Step k
// depends only on the steps before it, so the record of a run that stops
// is a bit-identical prefix of the full run's; a nil done never stops.
// The run records its own times.
func (e *Engine) RunUntil(start, stop, dt float64, done func(*Result) bool, keep ...int) (*Result, error) {
	g, err := window(start, stop, dt)
	if err != nil {
		return nil, err
	}
	x0, err := e.DCAt(start)
	if err != nil {
		return nil, err
	}
	return e.run(x0, g, done, nil, keep)
}

// PublishEvery is the step count between the record prefixes RunFrom
// hands publish: a reader following the run lags it by at most this many
// steps, and the run pays one publication per this many.
const PublishEvery = 16

// RunFrom performs a transient analysis under g's step control, starting
// from the supplied unknown vector (typically a previous DC or transient
// solution), which it only reads. keep is as for Run. On a fixed-step
// grid the record's times are views of the grid's; an adaptive run
// records its own. A non-nil publish sees the record after every
// PublishEvery recorded steps while the run goes on, so another goroutine
// can read the samples recorded so far: a recorded sample never changes,
// and the record never writes to storage it has left (a fixed-step one is
// reserved for the whole window before the first step; one that grows
// copies itself into new storage), so a published prefix stays valid.
func (e *Engine) RunFrom(x0 []float64, g *Grid, publish func(*Result), keep ...int) (*Result, error) {
	return e.run(x0, g, nil, publish, keep)
}

// run is the one transient loop, behind RunFrom and RunUntil; done is as
// for RunUntil and publish as for RunFrom. A grid without times (window)
// makes the record keep its own. Each step solves once on a fixed-step
// grid; an adaptive one retries it shorter until it is accepted.
func (e *Engine) run(x0 []float64, g *Grid, done func(*Result) bool, publish func(*Result), keep []int) (*Result, error) {
	n := e.Unknowns()
	if len(x0) != n {
		return nil, fmt.Errorf("spice: initial state has %d unknowns, want %d", len(x0), n)
	}
	if err := checkKeep(keep, n); err != nil {
		return nil, err
	}
	// A run with a stop check usually ends well before its horizon (an
	// NLDM table point fills about a seventh of it), and an adaptive run
	// does not know its step count, so both start small and let the
	// record double.
	reserve := g.steps + 1
	if done != nil || g.dv != nil {
		reserve = min(reserve, unknownSteps)
	}
	res := newResult(e.ckt, n, reserve, keep, g.t)

	// The loop's state lives on the engine, so a run allocates only its
	// record.
	x, xprev := e.xRun, e.xPrevRun
	copy(x, x0)
	copy(xprev, x0)
	ctx := &e.ctxRun
	*ctx = Context{Mode: ModeTransient, Method: e.opt.Method, SrcScale: 1, X: x, Xprev: xprev}

	// Reset all capacitor histories for a fresh run.
	for _, el := range e.ckt.Elements() {
		if st, ok := el.(Stepper); ok {
			resetBranches(st)
		}
	}

	res.record(g.start, x0)
	t, h := g.start, 0.0 // the last accepted time; the next step's length
	if g.dv != nil {
		h = g.dv.DtInit
	}
	for k := 1; ; k++ {
		var tEnd float64
		if g.dv == nil {
			if k > g.steps {
				break
			}
			var ok bool
			if tEnd, h, ok = g.step(k); !ok {
				break
			}
		} else {
			if !(t < g.stop-g.dv.DtMin/2) {
				break
			}
			if k > g.steps {
				return res, fmt.Errorf("spice: adaptive run over [%g,%g] takes more than %d steps", g.start, g.stop, g.steps)
			}
			if t+h > g.stop {
				h = g.stop - t
			}
			tEnd = t + h
		}
		// First step after DC uses backward Euler to avoid trapezoidal
		// start-up oscillation from inconsistent initial cap currents.
		method := e.opt.Method
		if k == 1 {
			method = BackwardEuler
		}
		for attempt := 1; ; attempt++ {
			ctx.Time, ctx.Dt = tEnd, h
			err := e.solveStep(ctx, method)
			if err == nil && (g.dv == nil || g.dv.accepts(ctx.X[:e.nNodes], ctx.Xprev[:e.nNodes], h)) {
				break
			}
			if g.dv != nil {
				if h *= shrinkBy; h < g.dv.DtMin {
					h = g.dv.DtMin
				}
				tEnd = t + h
			}
			if err != nil && (g.dv == nil || h <= g.dv.DtMin*1.0000001) {
				// The step cannot shrink. Trapezoidal's undamped mode
				// can ring against per-step re-frozen nonlinear
				// capacitances; retry the failed solve (ctx still holds
				// its time and length) with the L-stable backward Euler
				// rule, the classic SPICE fallback. A solve that failed
				// under that rule would fail the same way again.
				if ctx.Method != Trapezoidal {
					return res, fmt.Errorf("spice: transient step %d failed: %w", k, err)
				}
				copy(ctx.X, ctx.Xprev)
				if err := e.solveStep(ctx, BackwardEuler); err != nil {
					return res, fmt.Errorf("spice: transient step %d failed (BE retry): %w", k, err)
				}
				break
			}
			if attempt == maxAttempts {
				return res, fmt.Errorf("spice: transient step %d at t=%g not accepted", k, t)
			}
			copy(ctx.X, ctx.Xprev)
		}
		for _, st := range e.steppers {
			st.AcceptStep(ctx)
		}
		copy(ctx.Xprev, ctx.X)
		t = ctx.Time
		res.record(t, ctx.X)
		if g.dv != nil {
			if h *= growBy; h > g.dv.DtMax {
				h = g.dv.DtMax
			}
		}
		if done != nil && done(res) {
			break
		}
		if publish != nil && k%PublishEvery == 0 {
			publish(res)
		}
	}
	return res, nil
}

// solveStep solves the transient step ctx holds under method, starting
// from ctx.X: every stepper begins the step, then Newton runs.
func (e *Engine) solveStep(ctx *Context, method Method) error {
	ctx.Method = method
	for _, st := range e.steppers {
		st.BeginStep(ctx)
	}
	return e.newton(ctx, e.opt.Gmin)
}

// resetBranches clears capacitor history on elements that expose it.
func resetBranches(st Stepper) {
	type resetter interface{ ResetState() }
	if r, ok := st.(resetter); ok {
		r.ResetState()
		return
	}
	switch el := st.(type) {
	case *Capacitor:
		el.branch.Reset()
	case *MOSFET:
		el.cgs.Reset()
		el.cgd.Reset()
		el.cgb.Reset()
		el.cdb.Reset()
		el.csb.Reset()
	}
}
