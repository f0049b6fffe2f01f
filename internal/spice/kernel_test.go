package spice

import (
	"fmt"
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

// stagePattern6 is the sparsity pattern solve6Stage is generated for
// (gen_solve.go), one string per row of A, 'X' where an entry may be
// nonzero: the input A, input B and output nodes, the two input sources'
// branch currents, and the internal node VN of a two-input MCSM stage.
// TestStageKernelPattern checks that the kernel declines every entry off it.
var stagePattern6 = [6]string{"X.XX.X", ".XX.XX", "XXX..X", "X.....", ".X....", "XXX..X"}

// patternSystem draws a system on stagePattern6. Magnitudes span mag
// decades and signs are random; a tenth of the entries is exactly 0. A
// stage-like system keeps every magnitude at most 1, puts ±1 at the
// sources' entries (as MNA does) and makes a22 its row's largest entry,
// so it mostly takes the listed pivots; otherwise magnitudes center on 1.
func patternSystem(rng *rand.Rand, mag float64, stageLike bool) *System {
	s := NewSystem(6)
	for i, row := range stagePattern6 {
		for j := range row {
			if row[j] != 'X' || rng.Intn(10) == 0 {
				continue
			}
			e := rng.Float64() - 0.5
			if stageLike {
				e = -rng.Float64()
			}
			v := math.Pow(10, mag*e)
			if rng.Intn(2) == 0 {
				v = -v
			}
			s.A[i*6+j] = v
		}
		s.B[i] = rng.NormFloat64() * math.Pow(10, mag*(rng.Float64()-0.5))
	}
	if stageLike {
		for _, k := range []int{0*6 + 3, 1*6 + 4, 3*6 + 0, 4*6 + 1} {
			s.A[k] = float64(1 - 2*rng.Intn(2))
		}
		s.A[2*6+2] = 1 + rng.Float64()
	}
	return s
}

// stageOracle runs solveOracle on a 6-unknown system and reports whether
// solve6Stage took it. A declined system must leave the workspace as it
// found it, since SolveWith then hands the same workspace to solve6.
func stageOracle(t *testing.T, what string, sys *System) bool {
	t.Helper()
	ws := NewSolveWorkspace(6)
	f := &ws.fact
	for _, buf := range [][]float64{ws.af, ws.x, f.l, f.scale} {
		for i := range buf {
			buf[i] = 42
		}
	}
	for i := range f.perm {
		f.perm[i] = 42
	}
	f.minPivot, f.minPivotCol = 42, 42
	_, took := sys.solve6Stage(ws)
	if !took {
		for _, buf := range [][]float64{ws.af, ws.x, f.l, f.scale} {
			for i, v := range buf {
				if v != 42 {
					t.Fatalf("%s: declined system wrote %v into a workspace buffer at %d", what, v, i)
				}
			}
		}
		for _, p := range f.perm {
			if p != 42 {
				t.Fatalf("%s: declined system wrote the permutation", what)
			}
		}
		if f.minPivot != 42 || f.minPivotCol != 42 || f.a != nil {
			t.Fatalf("%s: declined system wrote the factor header", what)
		}
	}
	solveOracle(t, what, sys)
	return took
}

// TestStageKernelPattern: solve6Stage takes stage-like systems on its
// pattern and declines every one with a single entry off it, whatever
// that entry's sign.
func TestStageKernelPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	took := 0
	for k := 0; k < 200; k++ {
		sys := patternSystem(rng, 12, true)
		if stageOracle(t, "stage-like", sys) {
			took++
		}
		for i, row := range stagePattern6 {
			for j := range row {
				if row[j] == 'X' {
					continue
				}
				off := NewSystem(6)
				copy(off.A, sys.A)
				copy(off.B, sys.B)
				off.A[i*6+j] = rng.NormFloat64()
				if stageOracle(t, fmt.Sprintf("entry (%d, %d) off the pattern", i, j), off) {
					t.Fatalf("solve6Stage took a system with A[%d][%d] = %v, off its pattern", i, j, off.A[i*6+j])
				}
			}
		}
	}
	if took < 180 {
		t.Errorf("solve6Stage took %d of 200 stage-like systems, want at least 180", took)
	}
}

// TestStageKernelOracle: on random systems drawn on solve6Stage's pattern
// (0 to 24 decades, some entries exactly 0, random signs) and on edits
// that reach each of its exits, SolveWith equals the generic loops in
// solution, error text and every factor, whether the pattern kernel or
// the dense one answers.
func TestStageKernelOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	took, stageTook, total := 0, 0, 0
	run := func(what string, sys *System) bool {
		total++
		ok := stageOracle(t, what, sys)
		if ok {
			took++
		}
		return ok
	}
	for _, mag := range []float64{0, 6, 14, 24} {
		for k := 0; k < 300; k++ {
			run("random", patternSystem(rng, mag, false))
			if run("stage-like", patternSystem(rng, mag, true)) {
				stageTook++
			}
		}
	}
	// At 0 decades every entry is ±1, so rows tie and decline; the other
	// 900 stage-like systems mostly take the listed pivots.
	if stageTook < 800 {
		t.Errorf("solve6Stage took %d of 1200 random stage-like systems, want at least 800", stageTook)
	}
	// onPattern lists the flat indices of the pattern's entries.
	var onPattern, offPattern []int
	for i, row := range stagePattern6 {
		for j := range row {
			if row[j] == 'X' {
				onPattern = append(onPattern, i*6+j)
			} else {
				offPattern = append(offPattern, i*6+j)
			}
		}
	}
	negZero := math.Copysign(0, -1)
	edits := []struct {
		what    string
		decline bool // the pattern kernel must decline every such system
		edit    func(s *System)
	}{
		{"-0 on the pattern", false, func(s *System) { s.A[onPattern[rng.Intn(len(onPattern))]] = negZero }},
		{"-0 off the pattern", true, func(s *System) { s.A[offPattern[rng.Intn(len(offPattern))]] = negZero }},
		{"-0 in B", true, func(s *System) { s.B[rng.Intn(6)] = negZero }},
		{"B equilibrated to -0", true, func(s *System) {
			// Row 3 scales by 1/4, so its right-hand side, the smallest
			// negative subnormal, underflows to −0 at pivot position 0,
			// whose U row is all structural zeros.
			s.A[3*6+0], s.B[3] = 4, -math.SmallestNonzeroFloat64
			for j := 1; j < 6; j++ {
				s.B[j] = -math.Abs(s.B[j]) // negative unknowns make a skipped −(+0·x) a +0
			}
		}},
		{"NaN in A", true, func(s *System) { s.A[onPattern[rng.Intn(len(onPattern))]] = math.NaN() }},
		{"+Inf in A", true, func(s *System) { s.A[onPattern[rng.Intn(len(onPattern))]] = math.Inf(1) }},
		{"-Inf in A", true, func(s *System) { s.A[onPattern[rng.Intn(len(onPattern))]] = math.Inf(-1) }},
		{"NaN off the pattern", true, func(s *System) { s.A[offPattern[rng.Intn(len(offPattern))]] = math.NaN() }},
		{"NaN in B", true, func(s *System) { s.B[rng.Intn(6)] = math.NaN() }},
		{"+Inf in B", true, func(s *System) { s.B[rng.Intn(6)] = math.Inf(1) }},
		{"-Inf in B", true, func(s *System) { s.B[rng.Intn(6)] = math.Inf(-1) }},
		{"subnormal row maximum", true, func(s *System) {
			i := rng.Intn(6)
			for j := 0; j < 6; j++ {
				s.A[i*6+j] *= 1e-310
			}
		}},
		{"column 0 tie with an earlier candidate", true, func(s *System) {
			s.A[0*6+0] = math.Abs(s.A[0*6+3]) // row 0 scales to 1, as the source row 3 does
		}},
		{"column 1 tie with an earlier candidate", true, func(s *System) {
			s.A[1*6+1] = -math.Abs(s.A[1*6+4])
		}},
		{"column 2 tie with a later candidate", false, func(s *System) {
			// Row 0's entry scales to exactly a22's scaled magnitude; the
			// listed row 2 comes first and keeps the pivot.
			s.A[0*6+2] = s.A[2*6+2] / absRowMax(s, 2) * absRowMax(s, 0)
		}},
		{"pivot below 1e-300", true, func(s *System) {
			// Every column-2 candidate scales below 1e-300 against its
			// row's unit entry.
			s.A[2*6+5], s.A[5*6+5] = 1, 1
			for _, i := range []int{0, 1, 2, 5} {
				s.A[i*6+2] *= 1e-305
			}
		}},
		{"column 3 pivot below 1e-300", true, func(s *System) {
			s.A[0*6+5], s.A[0*6+3] = 1, 1e-302
		}},
		{"one entry off the pattern", true, func(s *System) { s.A[offPattern[rng.Intn(len(offPattern))]] = rng.NormFloat64() }},
	}
	for _, e := range edits {
		edited := 0
		for k := 0; k < 60; k++ {
			sys := patternSystem(rng, float64(rng.Intn(25)), true)
			e.edit(sys)
			if run(e.what, sys) {
				edited++
			}
		}
		if e.decline && edited > 0 {
			t.Errorf("%s: solve6Stage took %d of 60 systems, want none", e.what, edited)
		}
		t.Logf("%s: solve6Stage took %d of 60", e.what, edited)
	}
	t.Logf("solve6Stage took %d of %d systems; SolveWith equals the generic loops on all", took, total)
}

// absRowMax is the largest magnitude in row i of s.
func absRowMax(s *System, i int) float64 {
	m := 0.0
	for _, v := range s.A[i*s.N : (i+1)*s.N] {
		m = math.Max(m, math.Abs(v))
	}
	return m
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
