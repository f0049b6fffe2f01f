//go:build ignore

// gen_solve writes solve_gen.go: SolveWith unrolled into straight-line
// code for the system sizes a CSM stage assembles (3 unknowns for a SIS
// inverter stage, 6 for a two-input MCSM stage). Regenerate with
//
//	go generate ./internal/spice
//
// Every kernel performs the generic lu's operations with the same
// operands in the same order — row equilibration, first-strict-maximum
// pivot search, physical row swaps, multiplier storage with its m == 0
// skips, one solve and two refinement rounds — only with the loops
// unrolled and the matrix held in local variables.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// sizes lists the unknown counts that get a kernel.
var sizes = []int{3, 6}

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by gen_solve.go; DO NOT EDIT.

package spice

import "math"

`)
	for _, n := range sizes {
		kernel(&b, n)
	}
	b.WriteString(`// absMax returns the larger of m and |v|, keeping m when v is NaN: the
// generic factorization's row-maximum step.
func absMax(m, v float64) float64 {
	if a := math.Abs(v); a > m {
		return a
	}
	return m
}

// pivotMax is one step of the generic pivot search: row r replaces the
// candidate p only when its magnitude is strictly larger.
func pivotMax(p int, max float64, r int, v float64) (int, float64) {
	if a := math.Abs(v); a > max {
		return r, a
	}
	return p, max
}
`)
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("gofmt generated kernels: %v\n%s", err, b.Bytes())
	}
	if err := os.WriteFile("solve_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// Variable names: a<i><j> is the factor matrix entry at physical row i,
// column j; l<c><r> the multiplier of column c for physical row r; sc<i>
// row i's equilibration factor and row<i> the original row at physical
// position i.
func a(i, j int) string { return fmt.Sprintf("a%d%d", i, j) }
func l(c, r int) string { return fmt.Sprintf("l%d%d", c, r) }

func kernel(b *bytes.Buffer, n int) {
	w := func(format string, args ...any) { fmt.Fprintf(b, format+"\n", args...) }
	// list joins f(0), …, f(n-1) with commas.
	list := func(f func(i int) string) string {
		var parts []string
		for i := 0; i < n; i++ {
			parts = append(parts, f(i))
		}
		return strings.Join(parts, ", ")
	}
	sub := func(v string, terms ...string) string { return strings.Join(append([]string{v}, terms...), " - ") }

	w("// solve%d is SolveWith for %d unknowns (see gen_solve.go). It leaves", n, n)
	w("// the factors in ws.fact exactly as the generic factorization would,")
	w("// so chord Newton's chordStep reads them unchanged.")
	w("func (s *System) solve%d(ws *SolveWorkspace) ([]float64, error) {", n)
	w("A, B := (*[%d]float64)(s.A), (*[%d]float64)(s.B)", n*n, n)
	for i := 0; i < n; i++ {
		w("%s := %s", list(func(j int) string { return a(i, j) }),
			list(func(j int) string { return fmt.Sprintf("A[%d]", i*n+j) }))
	}
	w("%s := %s", list(func(i int) string { return fmt.Sprintf("row%d", i) }),
		list(func(i int) string { return fmt.Sprint(i) }))
	w("var %s float64", list(func(i int) string { return fmt.Sprintf("sc%d", i) }))
	var ls []string
	for c := 0; c < n; c++ {
		for r := c + 1; r < n; r++ {
			ls = append(ls, l(c, r))
		}
	}
	w("var %s float64", strings.Join(ls, ", "))

	// Row equilibration.
	for i := 0; i < n; i++ {
		m := "0.0"
		for j := 0; j < n; j++ {
			m = fmt.Sprintf("absMax(%s, %s)", m, a(i, j))
		}
		w("if m := %s; m > 0 {", m)
		w("sc%d = 1 / m", i)
		w("} else {")
		w("sc%d = 1", i)
		w("}")
		w("if sc%d != 1 {", i)
		row := list(func(j int) string { return a(i, j) })
		w("%s = %s", row, list(func(j int) string { return fmt.Sprintf("%s*sc%d", a(i, j), i) }))
		w("}")
	}

	// Elimination, column by column.
	w("minPivot, minPivotCol := math.Inf(1), -1")
	for c := 0; c < n; c++ {
		w("{")
		if c < n-1 {
			w("p, max := %d, math.Abs(%s)", c, a(c, c))
		} else {
			w("max := math.Abs(%s)", a(c, c))
		}
		for r := c + 1; r < n; r++ {
			w("p, max = pivotMax(p, max, %d, %s)", r, a(r, c))
		}
		w("if max < 1e-300 {")
		w("return nil, errZeroPivot(%d, max, %d)", n, c)
		w("}")
		w("if max < minPivot {")
		w("minPivot, minPivotCol = max, %d", c)
		w("}")
		if c == n-1 {
			w("}")
			break
		}
		// Columns left of c are never read again; the generic
		// factorization swaps them too, but only as dead data.
		w("switch p {")
		for p := c + 1; p < n; p++ {
			var lhs, rhs []string
			for k := c; k < n; k++ {
				lhs = append(lhs, a(c, k), a(p, k))
				rhs = append(rhs, a(p, k), a(c, k))
			}
			lhs = append(lhs, fmt.Sprintf("row%d", c), fmt.Sprintf("row%d", p))
			rhs = append(rhs, fmt.Sprintf("row%d", p), fmt.Sprintf("row%d", c))
			for cc := 0; cc < c; cc++ {
				lhs = append(lhs, l(cc, p), l(cc, c))
				rhs = append(rhs, l(cc, c), l(cc, p))
			}
			w("case %d:", p)
			w("%s = %s", strings.Join(lhs, ", "), strings.Join(rhs, ", "))
		}
		w("}")
		w("pivot := %s", a(c, c))
		for r := c + 1; r < n; r++ {
			w("%s = %s / pivot", l(c, r), a(r, c))
			w("if %s != 0 {", l(c, r))
			var lhs, rhs []string
			for k := c + 1; k < n; k++ {
				lhs = append(lhs, a(r, k))
				rhs = append(rhs, fmt.Sprintf("%s - %s*%s", a(r, k), l(c, r), a(c, k)))
			}
			w("%s = %s", strings.Join(lhs, ", "), strings.Join(rhs, ", "))
			w("}")
		}
		w("}")
	}

	// Leave the factors where the generic solveInto reads them.
	w("f := &ws.fact")
	w("f.n, f.a = %d, ws.af", n)
	w("f.minPivot, f.minPivotCol = minPivot, minPivotCol")
	w("U, L := (*[%d]float64)(ws.af), (*[%d]float64)(f.l)", n*n, n*n)
	for i := 0; i < n; i++ {
		var lhs, rhs []string
		for j := i; j < n; j++ {
			lhs = append(lhs, fmt.Sprintf("U[%d]", i*n+j))
			rhs = append(rhs, a(i, j))
		}
		for r := i + 1; r < n; r++ {
			lhs = append(lhs, fmt.Sprintf("L[%d]", i*n+r))
			rhs = append(rhs, l(i, r))
		}
		w("%s = %s", strings.Join(lhs, ", "), strings.Join(rhs, ", "))
	}
	w("perm, scale := (*[%d]int)(f.perm), (*[%d]float64)(f.scale)", n, n)
	w("*perm, *scale = [%d]int{%s}, [%d]float64{%s}", n, list(func(i int) string { return fmt.Sprintf("row%d", i) }),
		n, list(func(i int) string { return fmt.Sprintf("sc%d", i) }))
	w("%s := %s", list(func(i int) string { return fmt.Sprintf("sp%d", i) }),
		list(func(i int) string { return fmt.Sprintf("scale[row%d]", i) }))

	// solve emits one application of the factors to rhs (an array in
	// original row order): equilibrate and permute into pivot order,
	// eliminate forward, substitute back into out0, …, out<n-1>.
	solve := func(rhs, out string) {
		w("%s := %s", list(func(i int) string { return fmt.Sprintf("y%d", i) }),
			list(func(i int) string { return fmt.Sprintf("%s[row%d]*sp%d", rhs, i, i) }))
		for c := 0; c < n; c++ {
			for r := c + 1; r < n; r++ {
				w("if %s != 0 {", l(c, r))
				w("y%d -= %s * y%d", r, l(c, r), c)
				w("}")
			}
		}
		for i := n - 1; i >= 0; i-- {
			var terms []string
			for k := i + 1; k < n; k++ {
				terms = append(terms, fmt.Sprintf("%s*%s%d", a(i, k), out, k))
			}
			num := sub(fmt.Sprintf("y%d", i), terms...)
			if len(terms) > 0 {
				num = "(" + num + ")"
			}
			w("%s%d = %s / %s", out, i, num, a(i, i))
		}
	}
	w("var %s float64", list(func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("{")
	solve("B", "x")
	w("}")
	for round := 0; round < 2; round++ {
		w("{")
		w("var r [%d]float64", n)
		for i := 0; i < n; i++ {
			var terms []string
			for j := 0; j < n; j++ {
				terms = append(terms, fmt.Sprintf("A[%d]*x%d", i*n+j, j))
			}
			w("r[%d] = %s", i, sub(fmt.Sprintf("B[%d]", i), terms...))
		}
		w("var %s float64", list(func(i int) string { return fmt.Sprintf("d%d", i) }))
		solve("r", "d")
		w("%s = %s", list(func(i int) string { return fmt.Sprintf("x%d", i) }),
			list(func(i int) string { return fmt.Sprintf("x%d + d%d", i, i) }))
		w("}")
	}
	w("for _, v := range [...]float64{%s} {", list(func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("if math.IsNaN(v) || math.IsInf(v, 0) {")
	w("return nil, errNonFinite(%d, minPivot, minPivotCol)", n)
	w("}")
	w("}")
	w("*(*[%d]float64)(ws.x) = [%d]float64{%s}", n, n, list(func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("return ws.x, nil")
	w("}")
	w("")
}
