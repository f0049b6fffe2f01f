package table

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refLocate and refEval are the per-corner interpolation loop the cursor
// kernel replaced, kept verbatim as the bit-identity oracle: every lookup
// the package serves must equal theirs bit for bit.
func refLocate(points []float64, x float64) (int, float64) {
	n := len(points)
	if n == 1 {
		return 0, 0
	}
	if x <= points[0] {
		return 0, 0
	}
	if x >= points[n-1] {
		return n - 2, 1
	}
	i := sort.SearchFloat64s(points, x)
	if points[i] > x {
		i--
	}
	if i >= n-1 {
		i = n - 2
	}
	frac := (x - points[i]) / (points[i+1] - points[i])
	return i, frac
}

func refEval(t *Table, coords []float64, wantGrad bool) (float64, []float64) {
	rank := t.Rank()
	var lo [MaxRank]int
	var frac [MaxRank]float64
	var width [MaxRank]float64
	var clamped [MaxRank]bool
	for i := 0; i < rank; i++ {
		pts := t.Axes[i].Points
		li, f := refLocate(pts, coords[i])
		lo[i] = li
		frac[i] = f
		if len(pts) > 1 {
			width[i] = pts[li+1] - pts[li]
		} else {
			width[i] = 1
		}
		clamped[i] = len(pts) == 1 ||
			(coords[i] <= pts[0]) || (coords[i] >= pts[len(pts)-1])
	}
	var value float64
	var grad []float64
	if wantGrad {
		grad = make([]float64, rank)
	}
	corners := 1 << rank
	for c := 0; c < corners; c++ {
		w := 1.0
		off := 0
		for i := 0; i < rank; i++ {
			bit := (c >> i) & 1
			k := lo[i]
			if len(t.Axes[i].Points) > 1 {
				k += bit
			}
			off += k * t.strides[i]
			if bit == 1 {
				w *= frac[i]
			} else {
				w *= 1 - frac[i]
			}
		}
		d := t.Data[off]
		value += w * d
		if wantGrad {
			for i := 0; i < rank; i++ {
				if clamped[i] {
					continue
				}
				wi := 1.0
				for j := 0; j < rank; j++ {
					if j == i {
						continue
					}
					if (c>>j)&1 == 1 {
						wi *= frac[j]
					} else {
						wi *= 1 - frac[j]
					}
				}
				if (c>>i)&1 == 1 {
					grad[i] += wi * d / width[i]
				} else {
					grad[i] -= wi * d / width[i]
				}
			}
		}
	}
	return value, grad
}

// randomGrid draws a rank-r grid with non-uniform breakpoints. Axis
// sizes run 1..maxPts, so single-point axes appear at every rank.
func randomGrid(rng *rand.Rand, r, maxPts int) []Axis {
	axes := make([]Axis, r)
	for i := range axes {
		n := 1 + rng.Intn(maxPts)
		pts := make([]float64, n)
		x := rng.NormFloat64()
		for k := range pts {
			pts[k] = x
			x += 0.01 + rng.ExpFloat64()*0.4
		}
		axes[i] = Axis{Name: fmt.Sprintf("x%d", i), Points: pts}
	}
	return axes
}

// randomTable fills a table on axes with samples of mixed sign and scale.
func randomTable(rng *rand.Rand, axes []Axis) *Table {
	t := MustNew(axes...)
	for k := range t.Data {
		t.Data[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return t
}

// probe draws one coordinate on an axis: interior, an exact breakpoint,
// an exact end, or outside the span.
func probe(rng *rand.Rand, pts []float64) float64 {
	lo, hi := pts[0], pts[len(pts)-1]
	switch rng.Intn(6) {
	case 0:
		return pts[rng.Intn(len(pts))]
	case 1:
		if rng.Intn(2) == 0 {
			return lo
		}
		return hi
	case 2:
		return lo - rng.ExpFloat64()
	case 3:
		return hi + rng.ExpFloat64()
	default:
		return lo + (hi-lo)*rng.Float64()
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestKernelMatchesReference: At, Value and ValueGrad (through a fresh
// cursor and a reused one) equal the reference loop bit for bit at every
// rank, on seeded random grids and
// coordinates covering interiors, exact breakpoints, span ends, clamped
// out-of-span values and single-point axes. A second table on the same
// grid reads through the first table's cursor, and one cursor is reused
// across all seeks of a grid.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for rank := 1; rank <= MaxRank; rank++ {
		maxPts := 5
		if rank > 4 {
			maxPts = 3
		}
		for g := 0; g < 12; g++ {
			axes := randomGrid(rng, rank, maxPts)
			a, b := randomTable(rng, axes), randomTable(rng, axes)
			var cur Cursor
			grad := make([]float64, rank)
			coords := make([]float64, rank)
			for q := 0; q < 40; q++ {
				for i := range coords {
					coords[i] = probe(rng, axes[i].Points)
				}
				a.Seek(&cur, coords)
				for _, tb := range []*Table{a, b} {
					wantV, _ := refEval(tb, coords, false)
					wantGV, wantG := refEval(tb, coords, true)
					if got := tb.At(coords...); !sameBits(got, wantV) {
						t.Fatalf("rank %d At(%v) = %v, reference %v", rank, coords, got, wantV)
					}
					if got := tb.Value(&cur); !sameBits(got, wantV) {
						t.Fatalf("rank %d Value(%v) = %v, reference %v", rank, coords, got, wantV)
					}
					gv, g := gradAt(tb, coords...)
					vg := tb.ValueGrad(&cur, grad)
					if !sameBits(gv, wantGV) || !sameBits(vg, wantGV) {
						t.Fatalf("rank %d gradient value at %v: fresh cursor %v, reused %v, reference %v", rank, coords, gv, vg, wantGV)
					}
					for i := range wantG {
						if !sameBits(g[i], wantG[i]) || !sameBits(grad[i], wantG[i]) {
							t.Fatalf("rank %d grad[%d] at %v: fresh cursor %v, reused %v, reference %v",
								rank, i, coords, g[i], grad[i], wantG[i])
						}
					}
				}
			}
		}
	}
}

// TestSeekNaN: a NaN coordinate, on any axis including a single-point
// one, yields a NaN value and an all-NaN gradient instead of indexing out
// of range; finite coordinates on the same cursor afterwards are exact
// again.
func TestSeekNaN(t *testing.T) {
	tb := MustNew(Uniform("x", 0, 1, 5), Uniform("y", 0, 1, 3), Axis{Name: "z", Points: []float64{2}})
	fill(tb, func(c []float64) float64 { return c[0] + 2*c[1] })
	nan := math.NaN()
	var cur Cursor
	grad := make([]float64, 3)
	for _, coords := range [][]float64{{nan, 0.5, 2}, {0.5, nan, 2}, {0.5, 0.5, nan}, {nan, nan, nan}} {
		if v := tb.At(coords...); !math.IsNaN(v) {
			t.Errorf("At(%v) = %v, want NaN", coords, v)
		}
		tb.Seek(&cur, coords)
		v := tb.ValueGrad(&cur, grad)
		if !math.IsNaN(v) {
			t.Errorf("ValueGrad(%v) = %v, want NaN", coords, v)
		}
		for i, g := range grad {
			if !math.IsNaN(g) {
				t.Errorf("grad[%d] at %v = %v, want NaN", i, coords, g)
			}
		}
	}
	coords := []float64{0.3, 0.7, 2}
	tb.Seek(&cur, coords)
	want, _ := refEval(tb, coords, false)
	if got := tb.Value(&cur); !sameBits(got, want) {
		t.Errorf("cursor reused after NaN: Value = %v, want %v", got, want)
	}
	// The reported crash: a NaN on a 5-point axis.
	one := MustNew(Uniform("v", 0, 1, 5), Uniform("w", 0, 1, 2))
	if v := one.At(nan, 0.5); !math.IsNaN(v) {
		t.Errorf("At(NaN, 0.5) = %v, want NaN", v)
	}
}

// TestCursorGridMismatchPanics: a cursor seeked on one grid shape refuses
// a table of another rank or size.
func TestCursorGridMismatchPanics(t *testing.T) {
	a := MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 3))
	for _, b := range []*Table{
		MustNew(Uniform("x", 0, 1, 3)),
		MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 4)),
	} {
		var cur Cursor
		a.Seek(&cur, []float64{0.5, 0.5})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Value on a rank-%d, %d-sample table accepted a rank-2, 9-sample cursor", b.Rank(), b.Size())
				}
			}()
			b.Value(&cur)
		}()
	}
}

func TestSameGrid(t *testing.T) {
	a := MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 4))
	b := MustNew(Axis{Name: "other", Points: append([]float64(nil), a.Axes[0].Points...)}, Uniform("y", 0, 1, 4))
	if !SameGrid(a, b) {
		t.Error("bit-identical axes under another name not the same grid")
	}
	for _, c := range []*Table{
		MustNew(Uniform("x", 0, 1, 3)),
		MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 5)),
		MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, math.Nextafter(1, 2), 4)),
	} {
		if SameGrid(a, c) {
			t.Errorf("grid %v reported equal to %v", c.Axes, a.Axes)
		}
	}
}

// TestSeekReusedCursor: one cursor reused along random coordinate walks
// — small steps that stay in a bracket, steps across breakpoints, jumps,
// exact breakpoints, span ends, clamped and NaN coordinates — locates
// every point exactly as a fresh cursor does. The reused cursor alternates
// between a SameGrid pair and tables on other grids and ranks, so a
// bracket remembered from one grid is tried on another.
func TestSeekReusedCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		rank := 1 + rng.Intn(4)
		axes := randomGrid(rng, rank, 6)
		a, b := randomTable(rng, axes), randomTable(rng, axes)
		other := randomTable(rng, randomGrid(rng, 1+rng.Intn(4), 6))
		tables := []*Table{a, b, other}
		var reused Cursor
		pos := make([][]float64, len(tables)) // each table's walk position
		for k, tb := range tables {
			pos[k] = make([]float64, tb.Rank())
			for i := range pos[k] {
				pos[k][i] = probe(rng, tb.Axes[i].Points)
			}
		}
		grad, want := make([]float64, MaxRank), make([]float64, MaxRank)
		for q := 0; q < 300; q++ {
			k := rng.Intn(len(tables))
			tb, coords := tables[k], pos[k]
			for i := range coords {
				pts := tb.Axes[i].Points
				span := pts[len(pts)-1] - pts[0] + 1
				switch r := rng.Intn(10); {
				case r < 5:
					coords[i] += span * 0.02 * rng.NormFloat64()
				case r < 7:
					coords[i] = pts[rng.Intn(len(pts))]
				case r < 9:
					coords[i] = probe(rng, pts)
				default:
					if rng.Intn(4) == 0 {
						coords[i] = math.NaN()
					} else if coords[i] != coords[i] {
						coords[i] = probe(rng, pts)
					}
				}
			}
			var fresh Cursor
			tb.Seek(&reused, coords)
			tb.Seek(&fresh, coords)
			if reused.rank != fresh.rank || reused.size != fresh.size ||
				reused.frac != fresh.frac || reused.width != fresh.width || reused.clamped != fresh.clamped {
				// Compare through the bits so NaN fractions match NaN.
				for i := 0; i < fresh.rank; i++ {
					if !sameBits(reused.frac[i], fresh.frac[i]) || !sameBits(reused.width[i], fresh.width[i]) ||
						reused.clamped[i] != fresh.clamped[i] {
						t.Fatalf("axis %d at %v: reused cursor (frac %v, width %v, clamped %t), fresh (%v, %v, %t)",
							i, coords, reused.frac[i], reused.width[i], reused.clamped[i], fresh.frac[i], fresh.width[i], fresh.clamped[i])
					}
				}
			}
			corners := 1 << fresh.rank
			for c := 0; c < corners; c++ {
				if reused.off[c] != fresh.off[c] || !sameBits(reused.w[c], fresh.w[c]) {
					t.Fatalf("corner %d at %v: reused cursor (%d, %v), fresh (%d, %v)",
						c, coords, reused.off[c], reused.w[c], fresh.off[c], fresh.w[c])
				}
			}
			group := []*Table{tb}
			if k < 2 {
				group = tables[:2] // the SameGrid pair reads one cursor
			}
			for _, g := range group {
				if got, w := g.Value(&reused), g.Value(&fresh); !sameBits(got, w) {
					t.Fatalf("Value at %v: reused cursor %v, fresh %v", coords, got, w)
				}
				gv, wv := g.ValueGrad(&reused, grad), g.ValueGrad(&fresh, want)
				if !sameBits(gv, wv) {
					t.Fatalf("ValueGrad at %v: reused cursor %v, fresh %v", coords, gv, wv)
				}
				for i := 0; i < g.Rank(); i++ {
					if !sameBits(grad[i], want[i]) {
						t.Fatalf("grad[%d] at %v: reused cursor %v, fresh %v", i, coords, grad[i], want[i])
					}
				}
			}
		}
	}
}
