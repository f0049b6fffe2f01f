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
//
// A pattern kernel does the same for one sparsity pattern and one pivot
// order, and leaves out every operation whose operand is a structural
// zero: it declines (and SolveWith runs the dense kernel) whenever the
// system or a pivot choice leaves the pattern. DESIGN.md "Stage-solve
// kernel, part 3" argues why what it leaves out changes no bit.
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

// pattern is a sparsity pattern with the pivot order its systems take.
type pattern struct {
	name   string
	doc    []string // the kernel's doc comment, before the pattern
	rows   []string // rows[i][j] is 'X' where A[i][j] may be nonzero
	pivots []int    // pivots[c] is the row that pivots column c
}

// patterns lists the sparsity patterns that get a kernel of their own,
// tried before the dense kernel of their size.
var patterns = []pattern{{
	name: "solve6Stage",
	doc: []string{
		"solve6Stage is solve6 for the sparsity pattern and pivot order of a",
		"two-input MCSM stage's system (see gen_solve.go): unknowns 0-2 are",
		"the input A, input B and output nodes, 3-4 the two input sources'",
		"branch currents and 5 the cell's internal node VN.",
	},
	rows:   []string{"X.XX.X", ".XX.XX", "XXX..X", "X.....", ".X....", "XXX..X"},
	pivots: []int{3, 4, 2, 0, 1, 5},
}}

// out is the generated file.
var out bytes.Buffer

// w writes one line of generated code.
func w(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

// list joins f(0), …, f(n-1) with commas.
func list(n int, f func(i int) string) string {
	var parts []string
	for i := 0; i < n; i++ {
		parts = append(parts, f(i))
	}
	return strings.Join(parts, ", ")
}

func main() {
	out.WriteString(`// Code generated by gen_solve.go; DO NOT EDIT.

package spice

import "math"

`)
	for _, n := range sizes {
		kernel(n)
	}
	for _, p := range patterns {
		patternKernel(p)
	}
	out.WriteString(`// negZero reports whether v is −0.
func negZero(v float64) bool { return math.Float64bits(v) == 1<<63 }

// absMax returns the larger of m and |v|, keeping m when v is NaN: the
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
	src, err := format.Source(out.Bytes())
	if err != nil {
		log.Fatalf("gofmt generated kernels: %v\n%s", err, out.Bytes())
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

func kernel(n int) {
	sub := func(v string, terms ...string) string { return strings.Join(append([]string{v}, terms...), " - ") }

	w("// solve%d is SolveWith for %d unknowns (see gen_solve.go). It leaves", n, n)
	w("// the factors in ws.fact exactly as the generic factorization would,")
	w("// so chord Newton's chordStep reads them unchanged.")
	w("func (s *System) solve%d(ws *SolveWorkspace) ([]float64, error) {", n)
	w("A, B := (*[%d]float64)(s.A), (*[%d]float64)(s.B)", n*n, n)
	for i := 0; i < n; i++ {
		w("%s := %s", list(n, func(j int) string { return a(i, j) }),
			list(n, func(j int) string { return fmt.Sprintf("A[%d]", i*n+j) }))
	}
	w("%s := %s", list(n, func(i int) string { return fmt.Sprintf("row%d", i) }),
		list(n, func(i int) string { return fmt.Sprint(i) }))
	w("var %s float64", list(n, func(i int) string { return fmt.Sprintf("sc%d", i) }))
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
		row := list(n, func(j int) string { return a(i, j) })
		w("%s = %s", row, list(n, func(j int) string { return fmt.Sprintf("%s*sc%d", a(i, j), i) }))
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
	w("*perm, *scale = [%d]int{%s}, [%d]float64{%s}", n, list(n, func(i int) string { return fmt.Sprintf("row%d", i) }),
		n, list(n, func(i int) string { return fmt.Sprintf("sc%d", i) }))
	w("%s := %s", list(n, func(i int) string { return fmt.Sprintf("sp%d", i) }),
		list(n, func(i int) string { return fmt.Sprintf("scale[row%d]", i) }))

	// solve emits one application of the factors to rhs (an array in
	// original row order): equilibrate and permute into pivot order,
	// eliminate forward, substitute back into out0, …, out<n-1>.
	solve := func(rhs, out string) {
		w("%s := %s", list(n, func(i int) string { return fmt.Sprintf("y%d", i) }),
			list(n, func(i int) string { return fmt.Sprintf("%s[row%d]*sp%d", rhs, i, i) }))
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
	w("var %s float64", list(n, func(i int) string { return fmt.Sprintf("x%d", i) }))
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
		w("var %s float64", list(n, func(i int) string { return fmt.Sprintf("d%d", i) }))
		solve("r", "d")
		w("%s = %s", list(n, func(i int) string { return fmt.Sprintf("x%d", i) }),
			list(n, func(i int) string { return fmt.Sprintf("x%d + d%d", i, i) }))
		w("}")
	}
	w("for _, v := range [...]float64{%s} {", list(n, func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("if math.IsNaN(v) || math.IsInf(v, 0) {")
	w("return nil, errNonFinite(%d, minPivot, minPivotCol)", n)
	w("}")
	w("}")
	w("*(*[%d]float64)(ws.x) = [%d]float64{%s}", n, n, list(n, func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("return ws.x, nil")
	w("}")
	w("")
}

// patternKernel writes p's kernel: kernel's operations for one pivot
// order, less every one whose operand is a structural zero. The pivot
// order is fixed, so variables follow the original rows: a<r><j> is row
// r's factor matrix entry in column j, l<c><r> row r's multiplier of
// column c and sc<r> row r's equilibration factor; y<i> is the
// right-hand side at physical position i, as in kernel.
func patternKernel(p pattern) {
	n := len(p.rows)
	// decline emits the test that sends the system to the dense kernel
	// when any of conds holds.
	decline := func(conds ...string) {
		if len(conds) > 0 {
			w("if %s {", strings.Join(conds, " || "))
			w("return nil, false")
			w("}")
		}
	}
	if len(p.pivots) != n {
		log.Fatalf("%s: %d pivots for %d rows", p.name, len(p.pivots), n)
	}
	on := make([][]bool, n) // on[r][j]: (r, j) is on the listed pattern
	nz := make([][]bool, n) // nz[r][j]: (r, j) is structurally nonzero so far
	for r, row := range p.rows {
		if len(row) != n {
			log.Fatalf("%s: row %d is %q, want %d columns", p.name, r, row, n)
		}
		on[r], nz[r] = make([]bool, n), make([]bool, n)
		for j := range row {
			on[r][j] = row[j] == 'X'
			nz[r][j] = on[r][j]
		}
	}

	// Symbolic elimination: follow the dense kernel's physical row swaps
	// for the listed pivots, and record each column's pivot search, the
	// rows with a structurally nonzero multiplier, and their updates.
	type update struct {
		r    int   // the updated row
		cols []int // the columns its update touches
	}
	type column struct {
		search []string // the pivot search, in physical order
		at     int      // the listed pivot's physical position
		rows   []update
	}
	phys := make([]int, n) // phys[i] is the row at physical position i
	for i := range phys {
		phys[i] = i
	}
	cols := make([]column, n)
	mult := make([][]bool, n)  // mult[c][r]: row r's multiplier of column c is structurally nonzero
	check := make([][]bool, n) // check[r][j]: a skipped update subtracts from a<r><j>
	for r := range check {
		check[r] = make([]bool, n)
	}
	var fill []string
	for c := 0; c < n; c++ {
		piv, col := p.pivots[c], &cols[c]
		col.at = -1
		start := "0.0"
		if nz[phys[c]][c] {
			start = fmt.Sprintf("math.Abs(%s)", a(phys[c], c))
		}
		for i := c; i < n; i++ {
			if phys[i] == piv {
				col.at = i
			}
			if i > c && nz[phys[i]][c] {
				col.search = append(col.search, fmt.Sprintf("p, max = pivotMax(p, max, %d, %s)", i, a(phys[i], c)))
			}
		}
		if col.at < 0 || !nz[piv][c] {
			log.Fatalf("%s: row %d cannot pivot column %d", p.name, piv, c)
		}
		if len(col.search) > 0 {
			col.search = append([]string{fmt.Sprintf("p, max := %d, %s", c, start)}, col.search...)
		} else {
			col.search = []string{fmt.Sprintf("max := %s", start)}
		}
		phys[c], phys[col.at] = phys[col.at], phys[c]
		mult[c] = make([]bool, n)
		for i := c + 1; i < n; i++ {
			r := phys[i]
			if !nz[r][c] {
				continue // its multiplier is ±0 and its update skipped
			}
			mult[c][r] = true
			u := update{r: r}
			for k := c + 1; k < n; k++ {
				switch {
				case nz[piv][k]:
					if !nz[r][k] {
						nz[r][k] = true
						fill = append(fill, a(r, k))
					}
					u.cols = append(u.cols, k)
				case on[r][k]:
					check[r][k] = true
				}
			}
			col.rows = append(col.rows, u)
		}
	}

	for _, line := range p.doc {
		w("// %s", line)
	}
	w("// The pattern's rows ('X' where an entry may be nonzero), and the")
	w("// pivot rows by column:")
	w("//")
	w("//\t%s", strings.Join(p.rows, "  "))
	w("//\t%s", strings.Trim(fmt.Sprint(p.pivots), "[]"))
	w("//")
	w("// It performs those operations of solve%d whose operands are not", n)
	w("// structural zeros, in the same order, and leaves the same factors in")
	w("// ws.fact. It reports false, leaving ws untouched, when an entry off the")
	w("// pattern is not +0, a row scale is not finite, a value that a skipped")
	w("// subtraction would touch is −0, a pivot is not the listed row or is")
	w("// below 1e-300, or the solution is not finite: solve%d then decides.", n)
	w("func (s *System) %s(ws *SolveWorkspace) ([]float64, bool) {", p.name)
	w("A, B := (*[%d]float64)(s.A), (*[%d]float64)(s.B)", n*n, n)
	var off, negB []string
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !on[i][j] {
				off = append(off, fmt.Sprintf("math.Float64bits(A[%d])", i*n+j))
			}
		}
		if strings.Contains(p.rows[i], ".") {
			negB = append(negB, fmt.Sprintf("negZero(B[%d])", i))
		}
	}
	if len(off) > 0 {
		decline(strings.Join(off, "|") + " != 0")
	}
	decline(negB...)
	for r := 0; r < n; r++ {
		var names, vals []string
		for j := 0; j < n; j++ {
			if on[r][j] {
				names = append(names, a(r, j))
				vals = append(vals, fmt.Sprintf("A[%d]", r*n+j))
			}
		}
		w("%s := %s", strings.Join(names, ", "), strings.Join(vals, ", "))
	}
	if len(fill) > 0 {
		w("var %s float64", strings.Join(fill, ", "))
	}
	var ls []string
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			if mult[c][r] {
				ls = append(ls, l(c, r))
			}
		}
	}
	if len(ls) > 0 {
		w("var %s float64", strings.Join(ls, ", "))
	}
	w("var %s float64", list(n, func(i int) string { return fmt.Sprintf("sc%d", i) }))

	// Row equilibration.
	for r := 0; r < n; r++ {
		m := "0.0"
		var row, scaled []string
		for j := 0; j < n; j++ {
			if on[r][j] {
				m = fmt.Sprintf("absMax(%s, %s)", m, a(r, j))
				row = append(row, a(r, j))
				scaled = append(scaled, fmt.Sprintf("%s*sc%d", a(r, j), r))
			}
		}
		w("if m := %s; m > 0 {", m)
		w("sc%d = 1 / m", r)
		w("} else {")
		w("sc%d = 1", r)
		w("}")
		w("if sc%d != 1 {", r)
		w("%s = %s", strings.Join(row, ", "), strings.Join(scaled, ", "))
		w("}")
	}
	var conds []string
	for r := 0; r < n; r++ {
		conds = append(conds, fmt.Sprintf("sc%d > math.MaxFloat64", r))
	}
	decline(conds...)
	conds = nil
	for r := 0; r < n; r++ {
		for j := 0; j < n; j++ {
			if check[r][j] {
				conds = append(conds, fmt.Sprintf("negZero(%s)", a(r, j)))
			}
		}
	}
	decline(conds...)

	// Elimination, column by column, in the listed pivot order.
	w("minPivot, minPivotCol := math.Inf(1), -1")
	for c, col := range cols {
		piv := p.pivots[c]
		w("{")
		for _, s := range col.search {
			w("%s", s)
		}
		if len(col.search) > 1 {
			decline(fmt.Sprintf("p != %d", col.at), "max < 1e-300")
		} else {
			decline("max < 1e-300")
		}
		w("if max < minPivot {")
		w("minPivot, minPivotCol = max, %d", c)
		w("}")
		for _, u := range col.rows {
			w("%s = %s / %s", l(c, u.r), a(u.r, c), a(piv, c))
			if len(u.cols) == 0 {
				continue
			}
			w("if %s != 0 {", l(c, u.r))
			var lhs, rhs []string
			for _, k := range u.cols {
				lhs = append(lhs, a(u.r, k))
				rhs = append(rhs, fmt.Sprintf("%s - %s*%s", a(u.r, k), l(c, u.r), a(piv, k)))
			}
			w("%s = %s", strings.Join(lhs, ", "), strings.Join(rhs, ", "))
			w("}")
		}
		w("}")
	}

	// solve emits one application of the factors to the right-hand side
	// rhs(r) (row r's entry), substituting back into out0, …, out<n-1>.
	solve := func(rhs func(r int) string, out string) {
		w("%s := %s", list(n, func(i int) string { return fmt.Sprintf("y%d", i) }),
			list(n, func(i int) string { return fmt.Sprintf("%s*sc%d", rhs(phys[i]), phys[i]) }))
		var conds []string
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				if !nz[phys[i]][k] {
					conds = append(conds, fmt.Sprintf("negZero(y%d)", i))
					break
				}
			}
		}
		decline(conds...)
		for c := 0; c < n; c++ {
			for i := c + 1; i < n; i++ {
				if r := phys[i]; mult[c][r] {
					w("if %s != 0 {", l(c, r))
					w("y%d -= %s * y%d", i, l(c, r), c)
					w("}")
				}
			}
		}
		for i := n - 1; i >= 0; i-- {
			r := phys[i]
			num := fmt.Sprintf("y%d", i)
			for k := i + 1; k < n; k++ {
				if nz[r][k] {
					num += fmt.Sprintf(" - %s*%s%d", a(r, k), out, k)
				}
			}
			if strings.Contains(num, " - ") {
				num = "(" + num + ")"
			}
			w("%s%d = %s / %s", out, i, num, a(r, i))
		}
	}
	w("var %s float64", list(n, func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("{")
	solve(func(r int) string { return fmt.Sprintf("B[%d]", r) }, "x")
	w("}")
	for round := 0; round < 2; round++ {
		w("{")
		for i := 0; i < n; i++ {
			res := fmt.Sprintf("B[%d]", i)
			for j := 0; j < n; j++ {
				if on[i][j] {
					res += fmt.Sprintf(" - A[%d]*x%d", i*n+j, j)
				}
			}
			w("r%d := %s", i, res)
		}
		w("var %s float64", list(n, func(i int) string { return fmt.Sprintf("d%d", i) }))
		solve(func(r int) string { return fmt.Sprintf("r%d", r) }, "d")
		w("%s = %s", list(n, func(i int) string { return fmt.Sprintf("x%d", i) }),
			list(n, func(i int) string { return fmt.Sprintf("x%d + d%d", i, i) }))
		w("}")
	}
	w("for _, v := range [...]float64{%s} {", list(n, func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("if math.IsNaN(v) || math.IsInf(v, 0) {")
	w("return nil, false")
	w("}")
	w("}")

	// The factors as solve%d leaves them: structural zeros of U are +0,
	// and a structurally zero multiplier is 0/pivot, ±0 with the pivot's
	// sign.
	w("f := &ws.fact")
	w("f.n, f.a = %d, ws.af", n)
	w("f.minPivot, f.minPivotCol = minPivot, minPivotCol")
	w("U, L := (*[%d]float64)(ws.af), (*[%d]float64)(f.l)", n*n, n*n)
	for i := 0; i < n; i++ {
		var lhs, rhs []string
		for j := i; j < n; j++ {
			lhs = append(lhs, fmt.Sprintf("U[%d]", i*n+j))
			if nz[phys[i]][j] {
				rhs = append(rhs, a(phys[i], j))
			} else {
				rhs = append(rhs, "0")
			}
		}
		for k := i + 1; k < n; k++ {
			lhs = append(lhs, fmt.Sprintf("L[%d]", i*n+k))
			if r := phys[k]; mult[i][r] {
				rhs = append(rhs, l(i, r))
			} else {
				rhs = append(rhs, fmt.Sprintf("math.Copysign(0, %s)", a(p.pivots[i], i)))
			}
		}
		w("%s = %s", strings.Join(lhs, ", "), strings.Join(rhs, ", "))
	}
	w("perm, scale := (*[%d]int)(f.perm), (*[%d]float64)(f.scale)", n, n)
	w("*perm, *scale = [%d]int{%s}, [%d]float64{%s}", n, list(n, func(i int) string { return fmt.Sprint(phys[i]) }),
		n, list(n, func(i int) string { return fmt.Sprintf("sc%d", i) }))
	w("*(*[%d]float64)(ws.x) = [%d]float64{%s}", n, n, list(n, func(i int) string { return fmt.Sprintf("x%d", i) }))
	w("return ws.x, true")
	w("}")
	w("")
}
