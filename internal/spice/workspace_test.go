package spice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mcsm/internal/device"
	"mcsm/internal/wave"
)

// buildTestSystem fills an n×n diagonally dominant system with a
// deterministic pattern.
func buildTestSystem(n int) *System {
	s := NewSystem(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 1.0 / float64(i+j+1)
			if i == j {
				v += float64(n)
			}
			s.AddA(i, j, v)
		}
		s.AddB(i, float64(i+1))
	}
	return s
}

// TestSolveWithMatchesSolve pins the reuse contract: SolveWith through a
// shared workspace returns bit-identical results to a solve through a
// fresh one, and leaves the system's A/B intact.
func TestSolveWithMatchesSolve(t *testing.T) {
	const n = 7
	ref, err := solveFresh(buildTestSystem(n))
	if err != nil {
		t.Fatal(err)
	}

	s := buildTestSystem(n)
	a0 := append([]float64(nil), s.A...)
	b0 := append([]float64(nil), s.B...)
	ws := NewSolveWorkspace(n)
	x, err := s.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if x[i] != ref[i] {
			t.Errorf("x[%d]: SolveWith %v != Solve %v (bit identity broken)", i, x[i], ref[i])
		}
	}
	for i := range a0 {
		if s.A[i] != a0[i] {
			t.Fatal("SolveWith mutated the system matrix")
		}
	}
	for i := range b0 {
		if s.B[i] != b0[i] {
			t.Fatal("SolveWith mutated the right-hand side")
		}
	}
}

// TestSolveWorkspaceResize reuses one workspace across systems of different
// sizes, in both growth directions.
func TestSolveWorkspaceResize(t *testing.T) {
	ws := NewSolveWorkspace(2)
	for _, n := range []int{2, 9, 4, 16, 3} {
		s := buildTestSystem(n)
		x, err := s.SolveWith(ws)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Residual check against the (intact) system.
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += s.A[i*n+j] * x[j]
			}
			if math.Abs(sum-s.B[i]) > 1e-9*(1+math.Abs(s.B[i])) {
				t.Fatalf("n=%d: residual %g at row %d", n, sum-s.B[i], i)
			}
		}
	}
}

// TestErrSingularSentinel pins the typed failure mode: singular systems
// wrap ErrSingular and carry the unknown count and worst-pivot location so
// a characterization failure points at the offending node.
func TestErrSingularSentinel(t *testing.T) {
	s := NewSystem(3)
	// Rows 0 and 2 proportional → exactly singular.
	for j := 0; j < 3; j++ {
		s.AddA(0, j, float64(j+1))
		s.AddA(1, j, float64(3-j))
		s.AddA(2, j, 2*float64(j+1))
	}
	s.AddB(0, 1)
	_, err := solveFresh(s)
	if err == nil {
		t.Fatal("singular system solved")
	}
	if !errors.Is(err, ErrSingular) {
		t.Errorf("error %v does not wrap ErrSingular", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "3 unknowns") || !strings.Contains(msg, "pivot") {
		t.Errorf("error %q missing unknown count or pivot context", msg)
	}

	// The workspace path reports the same sentinel.
	s2 := NewSystem(2)
	s2.AddA(0, 0, 1)
	s2.AddA(0, 1, 1)
	s2.AddA(1, 0, 2)
	s2.AddA(1, 1, 2)
	if _, err := s2.SolveWith(NewSolveWorkspace(2)); !errors.Is(err, ErrSingular) {
		t.Errorf("SolveWith: %v does not wrap ErrSingular", err)
	}
}

// TestSolveNonFiniteIsSingular covers the post-solve sanity check: a
// finite factorization that still produces a non-finite solution (NaN
// contamination in the right-hand side) reports ErrSingular too.
func TestSolveNonFiniteIsSingular(t *testing.T) {
	s := NewSystem(2)
	s.AddA(0, 0, 1)
	s.AddA(1, 1, 1)
	s.AddB(0, math.NaN())
	_, err := solveFresh(s)
	if err == nil {
		t.Fatal("NaN solution accepted")
	}
	if !errors.Is(err, ErrSingular) {
		t.Errorf("error %v does not wrap ErrSingular", err)
	}
}

// buildInverter returns a 130 nm inverter engine driven by a rising ramp.
func buildInverter(opt Options) (*Engine, Node) {
	np := device.N130()
	pp := device.P130()
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("VDD", vdd, Ground, DC(1.2))
	c.AddVSource("VIN", in, Ground, wave.SaturatedRamp(0, 1.2, 0.5e-9, 80e-12, 3e-9))
	c.AddMOS("MN", out, in, Ground, Ground, &np, 0.2e-6)
	c.AddMOS("MP", out, in, vdd, vdd, &pp, 0.4e-6)
	c.AddCapacitor("CL", out, Ground, 5e-15)
	return NewEngine(c, opt), out
}

// TestJacobianLagMatchesExact is the solver-level accuracy contract of the
// fast path: chord Newton with lag 3 must land on the same waveform as the
// exact per-iteration factorization, because only the Jacobian is lagged —
// the converged residual is the same nonlinear KCL either way.
func TestJacobianLagMatchesExact(t *testing.T) {
	eExact, outE := buildInverter(DefaultOptions())
	exact, err := eExact.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	optLag := DefaultOptions()
	optLag.JacobianLag = 3
	eLag, outL := buildInverter(optLag)
	lagged, err := eLag.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	wE := exact.Wave(outE)
	wL := lagged.Wave(outL)
	tE, ok1 := wE.CrossTime(0.6, false, 0)
	tL, ok2 := wL.CrossTime(0.6, false, 0)
	if !ok1 || !ok2 {
		t.Fatal("missing output crossings")
	}
	if d := math.Abs(tE - tL); d > 0.5e-12 {
		t.Errorf("chord vs exact 50%% crossing differ by %.3fps", d*1e12)
	}
	if rmse := wave.RMSE(wE, wL, 0, 3e-9, 2000); rmse > 2e-3 {
		t.Errorf("chord vs exact RMSE %.4g V", rmse)
	}
}

// TestDCFromWarmStart covers the batched-characterization warm start: a
// seed near the solution converges to the same operating point, and a
// mis-sized seed silently falls back to the homotopy ladder.
func TestDCFromWarmStart(t *testing.T) {
	e, out := buildInverter(DefaultOptions())
	x, err := e.DCAt(0)
	if err != nil {
		t.Fatal(err)
	}
	ref := x[int(out)-1]
	seed := append([]float64(nil), x...)
	for i := range seed {
		seed[i] += 1e-3 // nudge off the solution
	}
	x2, err := e.DCFrom(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(x2[int(out)-1] - ref); d > 1e-6 {
		t.Errorf("warm-started DC differs by %g V", d)
	}
	x3, err := e.DCFrom([]float64{1}, 0) // wrong size → DCAt fallback
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(x3[int(out)-1] - ref); d > 1e-9 {
		t.Errorf("fallback DC differs by %g V", d)
	}
}

// BenchmarkNewtonStepInverter measures the Newton inner loop proper —
// assemble, factorize, line search — on a converged inverter operating
// point nudged off equilibrium each iteration. CI asserts this reports
// 0 allocs/op: the whole point of the workspace refactor.
func BenchmarkNewtonStepInverter(b *testing.B) {
	e, out := buildInverter(DefaultOptions())
	x, err := e.DCAt(0)
	if err != nil {
		b.Fatal(err)
	}
	n := e.Unknowns()
	ctx := &Context{Mode: ModeDC, SrcScale: 1, X: make([]float64, n), Xprev: make([]float64, n)}
	base := append([]float64(nil), x...)
	oi := int(out) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ctx.X, base)
		ctx.X[oi] += 0.05
		if err := e.newton(ctx, e.opt.Gmin); err != nil {
			b.Fatal(err)
		}
	}
}
