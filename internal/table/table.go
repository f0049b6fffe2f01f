// Package table implements dense N-dimensional lookup tables with clamped
// multilinear interpolation and analytic gradients.
//
// Tables are the storage format for every pre-characterized CSM component:
// the paper's Io(VA,VB,VN,Vo) and IN(VA,VB,VN,Vo) current sources and the
// CmA/CmB/Co/CN capacitances are 4-D tables, the baseline MIS model uses 3-D
// tables, the SIS model 2-D tables, and receiver input capacitances 1-D
// tables. Grids are rectilinear: each axis carries its own strictly
// increasing breakpoint list.
//
// Interpolation clamps query coordinates to the axis span, matching the
// paper's characterization over [-Δv, Vdd+Δv]: the safety margin Δv ensures
// in-range lookups for mild over/undershoot, and anything beyond saturates.
//
// Every lookup goes through one kernel: Seek locates a coordinate vector
// into a Cursor, and Eval evaluates any tables on the same grid from it,
// two at a time; Value and ValueGrad evaluate one. At wraps Seek and Value
// for a one-off lookup.
package table

import (
	"errors"
	"fmt"
	"math"
)

// MaxRank is the largest table dimensionality supported.
const MaxRank = 6

// Axis is one dimension of a table: a name (for diagnostics and
// serialization) and a strictly increasing list of breakpoints.
type Axis struct {
	Name   string
	Points []float64
}

// Validate reports whether the axis is well-formed.
func (a Axis) Validate() error {
	if len(a.Points) == 0 {
		return fmt.Errorf("table: axis %q has no points", a.Name)
	}
	for i, p := range a.Points {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("table: axis %q has non-finite point at %d", a.Name, i)
		}
		if i > 0 && p <= a.Points[i-1] {
			return fmt.Errorf("table: axis %q not strictly increasing at %d", a.Name, i)
		}
	}
	return nil
}

// Uniform returns an axis of n evenly spaced points spanning [lo, hi].
func Uniform(name string, lo, hi float64, n int) Axis {
	if n < 2 {
		n = 2
	}
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return Axis{Name: name, Points: pts}
}

// Table is a dense N-dimensional array of float64 samples over a rectilinear
// grid. Data is stored row-major: the last axis varies fastest.
type Table struct {
	Axes []Axis
	Data []float64

	strides []int // cached index strides, last axis stride 1
}

// New allocates a zero-filled table over the given axes.
func New(axes ...Axis) (*Table, error) {
	if len(axes) == 0 || len(axes) > MaxRank {
		return nil, fmt.Errorf("table: rank %d outside [1,%d]", len(axes), MaxRank)
	}
	size := 1
	for _, a := range axes {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		size *= len(a.Points)
	}
	t := &Table{Axes: axes, Data: make([]float64, size)}
	t.initStrides()
	return t, nil
}

// MustNew is like New but panics on invalid axes. Intended for tests.
func MustNew(axes ...Axis) *Table {
	t, err := New(axes...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) initStrides() {
	t.strides = make([]int, len(t.Axes))
	stride := 1
	for i := len(t.Axes) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= len(t.Axes[i].Points)
	}
}

// Rank returns the number of dimensions.
func (t *Table) Rank() int { return len(t.Axes) }

// Size returns the total number of stored samples.
func (t *Table) Size() int { return len(t.Data) }

// flatIndex converts per-axis indices to the flat Data offset.
func (t *Table) flatIndex(idx []int) int {
	off := 0
	for i, k := range idx {
		off += k * t.strides[i]
	}
	return off
}

// Set stores v at the given per-axis indices.
func (t *Table) Set(v float64, idx ...int) {
	t.Data[t.flatIndex(idx)] = v
}

// Get returns the stored sample at the given per-axis indices.
func (t *Table) Get(idx ...int) float64 {
	return t.Data[t.flatIndex(idx)]
}

// Cursor is a located interpolation cell: the flat offsets of the 2^rank
// cell corners and their multilinear weights, with scratch for the
// lookups that read them. Tables on one grid share the cell geometry, so
// one Seek serves every table whose axes are bit-identical to the seeked
// table's (see SameGrid), and Eval then evaluates them two at a time.
//
// A Cursor is caller-owned scratch: it is not safe for concurrent use,
// and it is large (a few KB), so hot loops keep one per grid and reuse it.
type Cursor struct {
	rank, size int // shape of the grid last seeked
	off        [maxCorners]int
	w          [maxCorners]float64 // corner weights
	frac       [MaxRank]float64
	width      [MaxRank]float64
	clamped    [MaxRank]bool
	// part[c] is corner c's weight with one axis's factor left out,
	// negated on that axis's lower breakpoint: scratch of a gradient
	// lookup, filled for one axis at a time.
	part [maxCorners]float64
	samp [2][maxCorners]float64 // a table pair's gathered corner samples
	// lo[i] is axis i's lower breakpoint index at the last Seek, the
	// first bracket the next Seek tries on that axis.
	lo [MaxRank]int
}

// maxCorners is the corner count of a MaxRank cell.
const maxCorners = 1 << MaxRank

// Seek locates coords on the table's grid into cur. The number of
// coordinates must equal the rank.
//
// Each axis finds the breakpoint pair bracketing its coordinate and the
// fractional position between them. Coordinates outside the span clamp to
// the edges, and a single-point axis is constant. A NaN coordinate
// poisons the cursor: every weight is NaN, so Value and every gradient
// entry come out NaN instead of the lookup indexing out of range.
//
// A coordinate strictly inside the span first tries the bracket the
// cursor found on that axis last time: if pts[lo] <= x < pts[lo+1], lo is
// the only index with that property (the points strictly increase), so
// it is exactly what the binary search would return. A cursor reused
// along a trajectory — one Newton solve after another — mostly skips the
// search.
//
// Corner c takes the upper breakpoint on axis i when bit i of c is set.
// Its weight is the product of the per-axis factors (frac or 1−frac)
// multiplied in axis order, built as a tree that extends every prefix
// product by one axis at a time. The tree performs exactly the
// multiplications of a per-corner loop, in the same order, so every
// weight is bit-identical to it at a fraction of the work.
func (t *Table) Seek(cur *Cursor, coords []float64) {
	rank := len(t.Axes)
	if len(coords) != rank {
		panic(fmt.Sprintf("table: %d coords for rank-%d table", len(coords), rank))
	}
	cur.rank, cur.size = rank, len(t.Data)
	base := 0
	nan := false
	for i, x := range coords {
		pts := t.Axes[i].Points
		n := len(pts)
		lo, frac, width, clamped := 0, 0.0, 1.0, true
		switch {
		case x != x:
			nan = true
		case n == 1:
		case x <= pts[0]:
		case x >= pts[n-1]:
			lo, frac = n-2, 1
		default:
			// Largest lo with pts[lo] <= x; pts[0] < x < pts[n-1].
			if lo = cur.lo[i]; lo >= n-1 || !(pts[lo] <= x && x < pts[lo+1]) {
				lo = 0
				hi := n - 1
				for hi-lo > 1 {
					mid := int(uint(lo+hi) >> 1)
					if pts[mid] <= x {
						lo = mid
					} else {
						hi = mid
					}
				}
			}
			cur.lo[i] = lo
			frac = (x - pts[lo]) / (pts[lo+1] - pts[lo])
			clamped = false
		}
		if n > 1 {
			width = pts[lo+1] - pts[lo]
		}
		cur.frac[i], cur.width[i], cur.clamped[i] = frac, width, clamped
		base += lo * t.strides[i]
	}
	if nan {
		for i := 0; i < rank; i++ {
			cur.frac[i] = math.NaN()
			cur.clamped[i] = false
		}
	}
	w, off := cur.w[:], cur.off[:]
	w[0], off[0] = 1, base
	for i, m := 0, 1; i < rank; i, m = i+1, m<<1 {
		f, g := cur.frac[i], 1-cur.frac[i]
		step := t.strides[i]
		if len(t.Axes[i].Points) == 1 {
			step = 0
		}
		for k := 0; k < m; k++ {
			v := w[k]
			w[k] = v * g
			w[k+m] = v * f
			off[k+m] = off[k] + step
		}
	}
}

// partials fills part with axis i's partial weights by the same prefix
// tree as Seek's weights, with axis i's level splitting each product
// into its negation (lower corner) and itself (upper corner) instead of
// multiplying. Negation is exact, so a signed partial times a sample over
// the width is bit for bit the negated unsigned term, and adding it
// equals subtracting the unsigned one, as the per-corner loop did. Eval
// builds one axis's partials just before the pass that reads them, so
// the tree's multiplications overlap the previous axis's divisions.
func (cur *Cursor) partials(i int) {
	p := cur.part[:]
	p[0] = 1
	for j, m := 0, 1; j < cur.rank; j, m = j+1, m<<1 {
		lo, hi := p[:m], p[m:2*m]
		if j == i {
			for k, v := range lo {
				hi[k] = v
				lo[k] = -v
			}
			continue
		}
		f, g := cur.frac[j], 1-cur.frac[j]
		for k, v := range lo {
			lo[k] = v * g
			hi[k] = v * f
		}
	}
}

// Cursor1 is the cursor of a rank-1 table: the bracket its last lookup
// found, which the next lookup tries first. It does for Value1 what a
// Cursor does for Seek, in one word instead of a Cursor's few kilobytes
// of corner storage.
type Cursor1 struct{ lo int }

// Value1 evaluates a rank-1 table at x: bit for bit Seek on a Cursor
// followed by Value, restated for one axis. The bracket search, the clamps
// and the NaN rule are Seek's; the two corner weights are Seek's prefix
// products 1·(1−frac) and 1·frac, which equal 1−frac and frac exactly,
// summed from zero in Value's corner order.
func (t *Table) Value1(cur *Cursor1, x float64) float64 {
	if len(t.Axes) != 1 {
		panic(fmt.Sprintf("table: Value1 on a rank-%d table", len(t.Axes)))
	}
	pts := t.Axes[0].Points
	n := len(pts)
	lo, frac := 0, 0.0
	switch {
	case x != x:
		frac = math.NaN()
	case n == 1:
	case x <= pts[0]:
	case x >= pts[n-1]:
		lo, frac = n-2, 1
	default:
		if lo = cur.lo; lo >= n-1 || !(pts[lo] <= x && x < pts[lo+1]) {
			lo = 0
			hi := n - 1
			for hi-lo > 1 {
				mid := int(uint(lo+hi) >> 1)
				if pts[mid] <= x {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		cur.lo = lo
		frac = (x - pts[lo]) / (pts[lo+1] - pts[lo])
	}
	hi := lo + 1
	if n == 1 {
		hi = lo
	}
	var v float64
	v += (1 - frac) * t.Data[lo]
	v += frac * t.Data[hi]
	return v
}

// check panics unless cur was seeked on a grid of t's shape.
func (t *Table) check(cur *Cursor) {
	if cur.rank != len(t.Axes) || cur.size != len(t.Data) {
		panic(fmt.Sprintf("table: cursor of a rank-%d, %d-sample grid used on a rank-%d, %d-sample table",
			cur.rank, cur.size, len(t.Axes), len(t.Data)))
	}
}

// Value evaluates the table at the cursor's point with clamped
// multilinear interpolation. cur must have been seeked on a table with the
// same grid (SameGrid).
func (t *Table) Value(cur *Cursor) float64 {
	t.check(cur)
	n := 1 << cur.rank
	d, w := t.Data, cur.w[:n]
	var v float64
	for c, o := range cur.off[:n] {
		v += w[c] * d[o]
	}
	return v
}

// ValueGrad is Value plus the gradient with respect to each coordinate,
// written into grad[:rank]. Inside a cell the gradient is the exact
// derivative of the multilinear interpolant; along a clamped axis it is
// zero (the interpolant is constant beyond the span), which is how the
// Newton solver should see a saturated table.
func (t *Table) ValueGrad(cur *Cursor, grad []float64) float64 {
	var v [1]float64
	Eval(cur, []*Table{t}, v[:], [][]float64{grad})
	return v[0]
}

// Eval evaluates tables, every one on the grid cur was seeked on
// (SameGrid): vals[k] gets tables[k]'s value and, when grads is not nil,
// grads[k][:rank] its gradient (see ValueGrad), each bit for bit what a
// lookup of that table alone returns.
//
// The tables go two at a time, with one accumulator per output: a pass
// over the cell's corners reads both tables' samples and sums their
// values, weight × sample in corner order, and a pass per unclamped axis
// sums their gradients, partial weight × sample / cell width in corner
// order. A lone last table pairs with itself. Each accumulator receives
// the same terms in the same order whichever table shares its passes, so
// pairing changes no bit.
func Eval(cur *Cursor, tables []*Table, vals []float64, grads [][]float64) {
	for _, t := range tables {
		t.check(cur)
	}
	for k := 0; k < len(tables); k += 2 {
		j := min(k+1, len(tables)-1)
		var ga, gb []float64
		if grads != nil {
			ga, gb = grads[k], grads[j]
		}
		vals[k], vals[j] = cur.evalPair(tables[k], tables[j], ga, gb)
	}
}

// evalPair is Eval for tables a and b: their values, and when ga is not
// nil their gradients in ga and gb.
func (cur *Cursor) evalPair(a, b *Table, ga, gb []float64) (va, vb float64) {
	n := 1 << cur.rank
	w, da, db := cur.w[:n], a.Data, b.Data
	if ga == nil {
		for c, o := range cur.off[:n] {
			va += w[c] * da[o]
			vb += w[c] * db[o]
		}
		return va, vb
	}
	sa, sb := cur.samp[0][:n], cur.samp[1][:n]
	for c, o := range cur.off[:n] {
		x, y := da[o], db[o]
		sa[c], sb[c] = x, y
		va += w[c] * x
		vb += w[c] * y
	}
	p := cur.part[:n]
	for i := range ga[:cur.rank] {
		var gx, gy float64
		if !cur.clamped[i] {
			cur.partials(i)
			width := cur.width[i]
			for c, pc := range p {
				gx += pc * sa[c] / width
				gy += pc * sb[c] / width
			}
		}
		ga[i], gb[i] = gx, gy
	}
	return va, vb
}

// At evaluates the table at the given coordinates with clamped multilinear
// interpolation. The number of coordinates must equal the rank.
func (t *Table) At(coords ...float64) float64 {
	var cur Cursor
	t.Seek(&cur, coords)
	return t.Value(&cur)
}

// SameGrid reports whether a and b have bit-identical axis breakpoints,
// so that a Cursor seeked on one evaluates the other.
func SameGrid(a, b *Table) bool {
	if len(a.Axes) != len(b.Axes) {
		return false
	}
	for i := range a.Axes {
		pa, pb := a.Axes[i].Points, b.Axes[i].Points
		if len(pa) != len(pb) {
			return false
		}
		for k := range pa {
			if math.Float64bits(pa[k]) != math.Float64bits(pb[k]) {
				return false
			}
		}
	}
	return true
}

// At2 is a convenience accessor for rank-2 tables.
func (t *Table) At2(x, y float64) float64 { return t.At(x, y) }

// Map returns a new table over the same axes with fn applied to every
// sample.
func (t *Table) Map(fn func(v float64) float64) *Table {
	out := &Table{Axes: t.Axes, Data: make([]float64, len(t.Data))}
	out.initStrides()
	for i, v := range t.Data {
		out.Data[i] = fn(v)
	}
	return out
}

// Combine returns a new table c with c[i] = fn(a[i], b[i]). The tables must
// share identical axis geometry.
func Combine(a, b *Table, fn func(x, y float64) float64) (*Table, error) {
	if a.Rank() != b.Rank() || a.Size() != b.Size() {
		return nil, errors.New("table: combine shape mismatch")
	}
	for i := range a.Axes {
		if len(a.Axes[i].Points) != len(b.Axes[i].Points) {
			return nil, errors.New("table: combine axis mismatch")
		}
	}
	out := &Table{Axes: a.Axes, Data: make([]float64, len(a.Data))}
	out.initStrides()
	for i := range a.Data {
		out.Data[i] = fn(a.Data[i], b.Data[i])
	}
	return out, nil
}

// MinMax returns the smallest and largest stored samples.
func (t *Table) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range t.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
