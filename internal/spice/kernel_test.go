package spice

import (
	"math"
	"math/rand"
	"testing"

	"mcsm/internal/device"
	"mcsm/internal/wave"
)

// kernelSizes are the unknown counts SolveWith hands to a generated
// kernel instead of the generic loops.
var kernelSizes = []int{3, 6}

// solveOracle solves sys twice — through SolveWith (the kernel for a
// kernel size) and through the generic loops — and fails unless the two
// agree bit for bit: the solution, the error text, and every factor entry
// a later lu.solveInto (chord Newton's chordStep) reads.
func solveOracle(t *testing.T, what string, sys *System) {
	t.Helper()
	n := sys.N
	wsK, wsG := NewSolveWorkspace(n), NewSolveWorkspace(n)
	xk, errK := sys.SolveWith(wsK)
	xg, errG := sys.solveGeneric(wsG)
	if (errK == nil) != (errG == nil) {
		t.Fatalf("%s: kernel error %v, generic error %v", what, errK, errG)
	}
	if errK != nil {
		if errK.Error() != errG.Error() {
			t.Fatalf("%s: kernel error %q, generic %q", what, errK, errG)
		}
		return
	}
	for i := range xg {
		if math.Float64bits(xk[i]) != math.Float64bits(xg[i]) {
			t.Fatalf("%s: x[%d] kernel %v, generic %v", what, i, xk[i], xg[i])
		}
	}
	fk, fg := &wsK.fact, &wsG.fact
	if fk.n != fg.n || math.Float64bits(fk.minPivot) != math.Float64bits(fg.minPivot) || fk.minPivotCol != fg.minPivotCol {
		t.Fatalf("%s: factor header kernel (%d, %v, %d), generic (%d, %v, %d)",
			what, fk.n, fk.minPivot, fk.minPivotCol, fg.n, fg.minPivot, fg.minPivotCol)
	}
	for i := 0; i < n; i++ {
		if fk.perm[i] != fg.perm[i] || math.Float64bits(fk.scale[i]) != math.Float64bits(fg.scale[i]) {
			t.Fatalf("%s: row %d: kernel perm/scale %d/%v, generic %d/%v", what, i, fk.perm[i], fk.scale[i], fg.perm[i], fg.scale[i])
		}
		for j := i; j < n; j++ {
			if k, g := fk.a[i*n+j], fg.a[i*n+j]; math.Float64bits(k) != math.Float64bits(g) {
				t.Fatalf("%s: U[%d,%d] kernel %v, generic %v", what, i, j, k, g)
			}
			if j > i {
				if k, g := fk.l[i*n+j], fg.l[i*n+j]; math.Float64bits(k) != math.Float64bits(g) {
					t.Fatalf("%s: L[col %d, row %d] kernel %v, generic %v", what, i, j, k, g)
				}
			}
		}
	}
	// Chord Newton applies the retained factors to fresh residuals.
	rk, rg := make([]float64, n), make([]float64, n)
	dk, dg := make([]float64, n), make([]float64, n)
	for i := range rk {
		rk[i] = float64(i+1) - 0.37*float64(n)
		rg[i] = rk[i]
	}
	fk.solveInto(rk, dk)
	fg.solveInto(rg, dg)
	for i := range dk {
		if math.Float64bits(dk[i]) != math.Float64bits(dg[i]) {
			t.Fatalf("%s: chord step d[%d] kernel %v, generic %v", what, i, dk[i], dg[i])
		}
	}
}

// randomSystem fills an n-unknown system. Magnitudes span mag decades
// around 1 (0 gives a well-conditioned, diagonally dominant system), and
// a fraction zero of the off-diagonal entries is exactly zero, as in MNA
// stamps.
func randomSystem(rng *rand.Rand, n int, mag float64, zero float64) *System {
	s := NewSystem(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < zero {
				continue
			}
			v := rng.NormFloat64() * math.Pow(10, mag*(rng.Float64()-0.5))
			if mag == 0 && i == j {
				v = float64(2*n) + math.Abs(v)
			}
			s.A[i*n+j] = v
		}
		s.B[i] = rng.NormFloat64() * math.Pow(10, mag*(rng.Float64()-0.5))
	}
	return s
}

// TestSolveKernelsMatchGeneric: on random well- and ill-conditioned
// systems of every kernel size, the kernel's solution, error and factors
// equal the generic loops' bit for bit.
func TestSolveKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range kernelSizes {
		for _, mag := range []float64{0, 6, 14, 24} {
			for _, zero := range []float64{0, 0.4, 0.7} {
				for k := 0; k < 200; k++ {
					solveOracle(t, "random", randomSystem(rng, n, mag, zero))
				}
			}
		}
	}
}

// TestSolveKernelsEdgeCases covers the branches random systems rarely
// reach: exact pivot ties (the first strict maximum wins), a zero column
// (zero-pivot error at that column), a pre-scaled unit row, an all-zero
// row, signed zeros, and NaN or Inf entries in the matrix or the
// right-hand side (the same ErrSingular text, pivot diagnostics included).
func TestSolveKernelsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelSizes {
		edit := func(what string, f func(s *System)) {
			for k := 0; k < 20; k++ {
				s := randomSystem(rng, n, 6, 0.3)
				f(s)
				solveOracle(t, what, s)
			}
		}
		edit("pivot ties", func(s *System) {
			// Every row of column c has the same magnitude after scaling.
			c := rng.Intn(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					s.A[i*n+j] = float64(rng.Intn(3) - 1)
				}
				s.A[i*n+c] = 1
				if rng.Intn(2) == 0 {
					s.A[i*n+c] = -1
				}
			}
		})
		edit("identity ties", func(s *System) {
			for i := range s.A {
				s.A[i] = 0
			}
			for i := 0; i < n; i++ {
				s.A[i*n+(i+1)%n] = 1
				s.A[i*n+i] = 1
			}
		})
		edit("zero column", func(s *System) {
			c := rng.Intn(n)
			for i := 0; i < n; i++ {
				s.A[i*n+c] = 0
			}
		})
		edit("zero row", func(s *System) {
			r := rng.Intn(n)
			for j := 0; j < n; j++ {
				s.A[r*n+j] = 0
			}
		})
		edit("unit rows", func(s *System) {
			for i := 0; i < n; i++ {
				s.A[i*n+rng.Intn(n)] = 1
				for j := 0; j < n; j++ {
					s.A[i*n+j] = math.Max(-1, math.Min(1, s.A[i*n+j]))
				}
			}
		})
		edit("signed zeros", func(s *System) {
			for i := range s.A {
				if rng.Intn(3) == 0 {
					s.A[i] = math.Copysign(0, -1)
				}
			}
			s.B[rng.Intn(n)] = math.Copysign(0, -1)
		})
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			edit("non-finite matrix entry", func(s *System) { s.A[rng.Intn(n*n)] = bad })
			edit("non-finite diagonal", func(s *System) { s.A[rng.Intn(n)*(n+1)] = bad })
			edit("non-finite rhs", func(s *System) { s.B[rng.Intn(n)] = bad })
		}
		edit("tiny pivot", func(s *System) {
			c := rng.Intn(n)
			for i := 0; i < n; i++ {
				s.A[i*n+c] = 1e-310 * float64(i+1)
			}
		})
	}
}

// TestSolveKernelChordNewton runs chord Newton (JacobianLag > 0) on a
// 6-unknown circuit — the kernel factorizes, chordStep reuses its
// factors — on an inverter driving an RC load, and checks it against the
// exact path like TestJacobianLagMatchesExact does for the generic size.
func TestSolveKernelChordNewton(t *testing.T) {
	build := func(opt Options) (*Engine, Node) {
		np, pp := device.N130(), device.P130()
		c := NewCircuit()
		vdd, in, out, far := c.Node("vdd"), c.Node("in"), c.Node("out"), c.Node("far")
		c.AddVSource("VDD", vdd, Ground, DC(1.2))
		c.AddVSource("VIN", in, Ground, wave.SaturatedRamp(0, 1.2, 0.5e-9, 80e-12, 3e-9))
		c.AddMOS("MN", out, in, Ground, Ground, &np, 0.2e-6)
		c.AddMOS("MP", out, in, vdd, vdd, &pp, 0.4e-6)
		c.AddResistor("RL", out, far, 500)
		c.AddCapacitor("CL", far, Ground, 5e-15)
		e := NewEngine(c, opt)
		if n := e.Unknowns(); n != 6 {
			t.Fatalf("inverter harness has %d unknowns, want the 6-unknown kernel size", n)
		}
		return e, out
	}
	eExact, outE := build(DefaultOptions())
	exact, err := eExact.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.JacobianLag = 3
	eLag, outL := build(opt)
	lagged, err := eLag.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	tE, ok1 := exact.Wave(outE).CrossTime(0.6, false, 0)
	tL, ok2 := lagged.Wave(outL).CrossTime(0.6, false, 0)
	if !ok1 || !ok2 {
		t.Fatal("missing output crossings")
	}
	if d := math.Abs(tE - tL); d > 0.5e-12 {
		t.Errorf("chord vs exact 50%% crossing differ by %.3fps", d*1e12)
	}
}

// BenchmarkSolveKernel6 times one 6-unknown solve, the MCSM stage size,
// through SolveWith. CI asserts it reports 0 allocs/op.
func BenchmarkSolveKernel6(b *testing.B) {
	s := randomSystem(rand.New(rand.NewSource(1)), 6, 14, 0.4)
	ws := NewSolveWorkspace(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveWith(ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveGeneric6 is BenchmarkSolveKernel6 through the generic
// loops, for comparison.
func BenchmarkSolveGeneric6(b *testing.B) {
	s := randomSystem(rand.New(rand.NewSource(1)), 6, 14, 0.4)
	ws := NewSolveWorkspace(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.solveGeneric(ws); err != nil {
			b.Fatal(err)
		}
	}
}
