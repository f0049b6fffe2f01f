package spice

//go:generate go run gen_solve.go

import (
	"errors"
	"fmt"
	"math"
)

// System is the dense linear system A·x = b assembled each Newton
// iteration. Unknown indices: node k (k ≥ 1) maps to index k−1; element
// auxiliary unknowns (source branch currents, CSM internal nodes) follow.
// Index −1 denotes ground and is silently discarded by the Add methods.
type System struct {
	N int
	A []float64 // row-major N×N
	B []float64
}

// NewSystem allocates an N-unknown system.
func NewSystem(n int) *System {
	return &System{N: n, A: make([]float64, n*n), B: make([]float64, n)}
}

// Clear zeroes the system for reassembly.
func (s *System) Clear() {
	for i := range s.A {
		s.A[i] = 0
	}
	for i := range s.B {
		s.B[i] = 0
	}
}

// AddA accumulates v into A[i,j]. Negative indices (ground) are ignored.
func (s *System) AddA(i, j int, v float64) {
	if i < 0 || j < 0 {
		return
	}
	s.A[i*s.N+j] += v
}

// AddB accumulates v into b[i]. Negative indices are ignored.
func (s *System) AddB(i int, v float64) {
	if i < 0 {
		return
	}
	s.B[i] += v
}

// ErrSingular is the sentinel wrapped by every solver failure caused by a
// numerically singular (or non-finite) system. Callers match it with
// errors.Is; the wrapping message carries the unknown count and the
// offending pivot for diagnosability.
var ErrSingular = errors.New("spice: singular matrix")

// SolveWorkspace holds every scratch buffer one solve needs: the factor
// matrix, the permutation and equilibration vectors, and the
// solution/residual/correction vectors of iterative refinement. A solver
// hot loop (one Newton iteration per call, thousands of calls per
// characterization) reuses one workspace and allocates nothing.
//
// A workspace is not safe for concurrent use; each Engine owns one.
type SolveWorkspace struct {
	n       int
	fact    lu
	af      []float64 // factor buffer: copy of A, decomposed in place
	x, r, d []float64 // solution, refinement residual, refinement correction
}

// NewSolveWorkspace returns a workspace sized for n unknowns. It grows
// automatically if later used with a larger system.
func NewSolveWorkspace(n int) *SolveWorkspace {
	ws := &SolveWorkspace{}
	ws.ensure(n)
	return ws
}

// ensure (re)sizes the buffers for n unknowns.
func (ws *SolveWorkspace) ensure(n int) {
	if ws.n == n && ws.af != nil {
		return
	}
	ws.n = n
	ws.af = make([]float64, n*n)
	ws.x = make([]float64, n)
	ws.r = make([]float64, n)
	ws.d = make([]float64, n)
	ws.fact = lu{n: n, l: make([]float64, n*n), perm: make([]int, n), scale: make([]float64, n)}
}

// SolveWith solves A·x = b using the workspace's buffers. The system
// contents are preserved (the factorization decomposes a workspace copy),
// which lets the Newton loop keep the assembled system for residual
// reuse. The returned slice is owned by ws and overwritten by the next
// call.
//
// The factorization equilibrates rows (MNA systems mix gmin-scale 1e-12 S
// rows with 1e-2 S cap companions and unit source constraints) and applies
// two rounds of iterative refinement against the original matrix: without
// refinement the ~1e10 condition number leaves µA-scale residuals that
// stall Newton's line search at a false floor.
//
// The stage sizes (3 and 6 unknowns) run a straight-line kernel generated
// from the same algorithm (solve_gen.go); every other size runs the
// generic loops below, which also serve as the kernels' test oracle.
func (s *System) SolveWith(ws *SolveWorkspace) ([]float64, error) {
	n := s.N
	ws.ensure(n)
	switch n {
	case 3:
		return s.solve3(ws)
	case 6:
		return s.solve6(ws)
	}
	return s.solveGeneric(ws)
}

// solveGeneric is SolveWith's loop form for any n; ws is already sized.
func (s *System) solveGeneric(ws *SolveWorkspace) ([]float64, error) {
	n := s.N
	copy(ws.af, s.A)
	if err := ws.fact.factorize(n, ws.af); err != nil {
		return nil, err
	}
	copy(ws.r, s.B)
	ws.fact.solveInto(ws.r, ws.x)
	x := ws.x
	// Iterative refinement against the untouched A/B.
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			sum := s.B[i]
			arow := s.A[i*n : i*n+n : i*n+n]
			for j, v := range arow {
				sum -= v * x[j]
			}
			ws.r[i] = sum
		}
		ws.fact.solveInto(ws.r, ws.d)
		for i := range x {
			x[i] += ws.d[i]
		}
	}
	for i := range x {
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return nil, errNonFinite(n, ws.fact.minPivot, ws.fact.minPivotCol)
		}
	}
	return x, nil
}

// errZeroPivot reports a factorization that found no usable pivot.
func errZeroPivot(n int, max float64, col int) error {
	return fmt.Errorf("%w: %d unknowns, numerically zero pivot %.3g at column %d",
		ErrSingular, n, max, col)
}

// errNonFinite reports a solve whose solution came out NaN or infinite,
// with the smallest pivot the factorization accepted.
func errNonFinite(n int, minPivot float64, minPivotCol int) error {
	return fmt.Errorf("%w: non-finite solution for %d unknowns (worst pivot %.3g at column %d)",
		ErrSingular, n, minPivot, minPivotCol)
}

// lu is a row-equilibrated LU factorization with partial pivoting. Rows
// are pivoted physically (swapped in the factor buffer) and the
// elimination multipliers are stored column-major in l, so the three
// substitutions each factorization serves (one solve plus two refinement
// rounds) walk contiguous memory with no permutation indirection. The
// arithmetic — operand values and operation order — is identical to the
// classic virtual-permutation formulation; only the data layout differs.
type lu struct {
	n     int
	a     []float64 // U (and scratch) in physical pivot order
	l     []float64 // multipliers, column-major: l[col*n+r]
	perm  []int     // perm[i] = original row index at physical position i
	scale []float64 // row equilibration factors, original row order

	// Diagnostics: the smallest accepted pivot and its column, reported
	// when a downstream solve turns out non-finite.
	minPivot    float64
	minPivotCol int
}

// factorize decomposes the matrix in buffer a (destroyed in place). perm,
// scale, and l must already have length n / n·n.
func (f *lu) factorize(n int, a []float64) error {
	f.n, f.a = n, a
	f.minPivot, f.minPivotCol = math.Inf(1), -1
	for i := 0; i < n; i++ {
		f.perm[i] = i
		row := i * n
		m := 0.0
		for j := 0; j < n; j++ {
			if v := math.Abs(a[row+j]); v > m {
				m = v
			}
		}
		inv := 1.0
		if m > 0 {
			inv = 1 / m
		}
		f.scale[i] = inv
		if inv != 1 {
			for j := 0; j < n; j++ {
				a[row+j] *= inv
			}
		}
	}
	for col := 0; col < n; col++ {
		p := col
		max := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > max {
				max, p = v, r
			}
		}
		if max < 1e-300 {
			return errZeroPivot(n, max, col)
		}
		if max < f.minPivot {
			f.minPivot, f.minPivotCol = max, col
		}
		if p != col {
			f.perm[col], f.perm[p] = f.perm[p], f.perm[col]
			pr, cr := a[p*n:p*n+n:p*n+n], a[col*n:col*n+n:col*n+n]
			for k := range pr {
				pr[k], cr[k] = cr[k], pr[k]
			}
			// Swap the already-stored multiplier prefixes too: they belong
			// to the logical rows being exchanged.
			lcolp, lcolc := p, col
			for c := 0; c < col; c++ {
				f.l[c*n+lcolp], f.l[c*n+lcolc] = f.l[c*n+lcolc], f.l[c*n+lcolp]
			}
		}
		prow := col * n
		pivot := a[prow+col]
		ap := a[prow+col+1 : prow+n : prow+n]
		lcol := f.l[col*n : col*n+n : col*n+n]
		for r := col + 1; r < n; r++ {
			row := r * n
			m := a[row+col] / pivot
			lcol[r] = m
			if m == 0 {
				continue
			}
			ar := a[row+col+1 : row+n : row+n]
			for k, v := range ap {
				ar[k] -= m * v
			}
		}
	}
	return nil
}

// solveInto applies the factorization: rhs is consumed (scaled, permuted,
// and forward-eliminated in place), the solution lands in x. rhs and x
// must not alias.
func (f *lu) solveInto(rhs, x []float64) {
	n := f.n
	a, l, perm, scale := f.a, f.l, f.perm, f.scale
	// Equilibrate in original row order, then permute into pivot order
	// (staged through x, which is fully overwritten afterwards).
	for i := 0; i < n; i++ {
		pi := perm[i]
		x[i] = rhs[pi] * scale[pi]
	}
	copy(rhs, x)
	// Forward elimination: contiguous column-major multipliers.
	for col := 0; col < n; col++ {
		rc := rhs[col]
		lcol := l[col*n : col*n+n : col*n+n]
		for r := col + 1; r < n; r++ {
			if m := lcol[r]; m != 0 {
				rhs[r] -= m * rc
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := i * n
		sum := rhs[i]
		arow := a[row+i : row+n : row+n]
		xs := x[i:n]
		for k := 1; k < len(arow); k++ {
			sum -= arow[k] * xs[k]
		}
		x[i] = sum / arow[0]
	}
}

// StampConductance adds a two-terminal conductance g between nodes a and b
// using the standard four-entry pattern.
func StampConductance(sys *System, a, b Node, g float64) {
	ia, ib := unknownIndex(a), unknownIndex(b)
	sys.AddA(ia, ia, g)
	sys.AddA(ib, ib, g)
	sys.AddA(ia, ib, -g)
	sys.AddA(ib, ia, -g)
}

// unknownIndex maps a node to its unknown index (−1 for ground).
func unknownIndex(n Node) int { return int(n) - 1 }
