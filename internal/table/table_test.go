package table

import (
	"math"
	"testing"
	"testing/quick"
)

// fill sets every sample of t to fn at its grid coordinates. coords is
// reused between calls; fn must not retain it.
func fill(t *Table, fn func(coords []float64) float64) {
	idx := make([]int, t.Rank())
	coords := make([]float64, t.Rank())
	for flat := range t.Data {
		rem := flat
		for i := range idx {
			idx[i] = rem / t.strides[i]
			rem %= t.strides[i]
			coords[i] = t.Axes[i].Points[idx[i]]
		}
		t.Data[flat] = fn(coords)
	}
}

// gradAt is one ValueGrad lookup through a fresh cursor, with a fresh
// gradient.
func gradAt(t *Table, coords ...float64) (float64, []float64) {
	var cur Cursor
	t.Seek(&cur, coords)
	g := make([]float64, len(coords))
	return t.ValueGrad(&cur, g), g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("rank 0 accepted")
	}
	bad := Axis{Name: "x", Points: []float64{1, 1}}
	if _, err := New(bad); err == nil {
		t.Error("non-increasing axis accepted")
	}
	if _, err := New(Axis{Name: "x", Points: nil}); err == nil {
		t.Error("empty axis accepted")
	}
	if _, err := New(Axis{Name: "x", Points: []float64{0, math.NaN()}}); err == nil {
		t.Error("NaN axis point accepted")
	}
	axes := make([]Axis, MaxRank+1)
	for i := range axes {
		axes[i] = Uniform("a", 0, 1, 2)
	}
	if _, err := New(axes...); err == nil {
		t.Error("rank > MaxRank accepted")
	}
}

func TestUniform(t *testing.T) {
	a := Uniform("v", 0, 1.2, 7)
	if len(a.Points) != 7 {
		t.Fatalf("points = %d", len(a.Points))
	}
	if a.Points[0] != 0 || a.Points[6] != 1.2 {
		t.Errorf("span = [%g,%g]", a.Points[0], a.Points[6])
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
	// Degenerate n clamps to 2.
	if got := Uniform("v", 0, 1, 1); len(got.Points) != 2 {
		t.Errorf("n=1 gave %d points", len(got.Points))
	}
}

func TestSetGetRoundtrip(t *testing.T) {
	tb := MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 4))
	if tb.Rank() != 2 || tb.Size() != 12 {
		t.Fatalf("rank=%d size=%d", tb.Rank(), tb.Size())
	}
	k := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			tb.Set(k, i, j)
			k++
		}
	}
	k = 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if got := tb.Get(i, j); got != k {
				t.Errorf("Get(%d,%d) = %g, want %g", i, j, got, k)
			}
			k++
		}
	}
}

func TestFillAndExactAtGridPoints(t *testing.T) {
	tb := MustNew(Uniform("x", -1, 1, 5), Uniform("y", 0, 2, 4))
	fn := func(c []float64) float64 { return 3*c[0] - 2*c[1] + 0.5 }
	fill(tb, fn)
	for _, x := range tb.Axes[0].Points {
		for _, y := range tb.Axes[1].Points {
			want := fn([]float64{x, y})
			if got := tb.At(x, y); math.Abs(got-want) > 1e-12 {
				t.Errorf("At(%g,%g) = %g, want %g", x, y, got, want)
			}
		}
	}
}

// Multilinear interpolation must reproduce any multilinear function exactly,
// including at off-grid points.
func TestInterpExactForMultilinear(t *testing.T) {
	tb := MustNew(Uniform("a", 0, 1, 3), Uniform("b", 0, 1, 4), Uniform("c", 0, 1, 5))
	fn := func(c []float64) float64 {
		return 1 + 2*c[0] - c[1] + 3*c[2] + 4*c[0]*c[1] - 2*c[1]*c[2] + c[0]*c[1]*c[2]
	}
	fill(tb, fn)
	pts := [][3]float64{
		{0.1, 0.2, 0.3}, {0.77, 0.13, 0.99}, {0.5, 0.5, 0.5}, {0, 1, 0.25},
	}
	for _, p := range pts {
		want := fn(p[:])
		if got := tb.At(p[0], p[1], p[2]); math.Abs(got-want) > 1e-10 {
			t.Errorf("At(%v) = %g, want %g", p, got, want)
		}
	}
}

func TestClamping(t *testing.T) {
	tb := MustNew(Uniform("x", 0, 1, 2))
	tb.Set(5, 0)
	tb.Set(7, 1)
	if got := tb.At(-10); got != 5 {
		t.Errorf("clamp low = %g", got)
	}
	if got := tb.At(10); got != 7 {
		t.Errorf("clamp high = %g", got)
	}
	v, g := gradAt(tb, -10)
	if v != 5 || g[0] != 0 {
		t.Errorf("clamped grad = %g, %v (gradient must vanish off-grid)", v, g)
	}
}

func TestGradMatchesFiniteDifference(t *testing.T) {
	tb := MustNew(Uniform("a", -1, 1, 7), Uniform("b", -1, 1, 6))
	fill(tb, func(c []float64) float64 { return math.Sin(c[0]) + c[0]*c[1]*c[1] })
	pts := [][2]float64{{0.111, -0.37}, {-0.72, 0.68}, {0.3, 0.3}}
	for _, p := range pts {
		_, g := gradAt(tb, p[0], p[1])
		const h = 1e-7
		for dim := 0; dim < 2; dim++ {
			lo, hi := p, p
			lo[dim] -= h
			hi[dim] += h
			fd := (tb.At(hi[0], hi[1]) - tb.At(lo[0], lo[1])) / (2 * h)
			if math.Abs(fd-g[dim]) > 1e-5*(1+math.Abs(fd)) {
				t.Errorf("grad dim %d at %v: analytic %g vs fd %g", dim, p, g[dim], fd)
			}
		}
	}
}

func TestSinglePointAxis(t *testing.T) {
	tb := MustNew(Axis{Name: "x", Points: []float64{2}}, Uniform("y", 0, 1, 3))
	fill(tb, func(c []float64) float64 { return c[1] * 10 })
	if got := tb.At(99, 0.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("single-point axis At = %g", got)
	}
	_, g := gradAt(tb, 2, 0.5)
	if g[0] != 0 {
		t.Errorf("grad along single-point axis = %g", g[0])
	}
}

func TestMapAndCombine(t *testing.T) {
	a := MustNew(Uniform("x", 0, 1, 3))
	fill(a, func(c []float64) float64 { return c[0] })
	b := a.Map(func(v float64) float64 { return 2 * v })
	if got := b.At(1); got != 2 {
		t.Errorf("Map result = %g", got)
	}
	c, err := Combine(a, b, func(x, y float64) float64 { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(1); got != 3 {
		t.Errorf("Combine result = %g", got)
	}
	d := MustNew(Uniform("x", 0, 1, 4))
	if _, err := Combine(a, d, func(x, y float64) float64 { return 0 }); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestMinMax(t *testing.T) {
	a := MustNew(Uniform("x", 0, 1, 3))
	a.Set(-2, 0)
	a.Set(5, 1)
	a.Set(1, 2)
	min, max := a.MinMax()
	if min != -2 || max != 5 {
		t.Errorf("MinMax = (%g,%g)", min, max)
	}
}

func TestAtConvenience(t *testing.T) {
	t1 := MustNew(Uniform("x", 0, 1, 2))
	fill(t1, func(c []float64) float64 { return c[0] })
	if t1.At(0.5) != 0.5 {
		t.Error("At rank 1")
	}
	t2 := MustNew(Uniform("x", 0, 1, 2), Uniform("y", 0, 1, 2))
	fill(t2, func(c []float64) float64 { return c[0] + c[1] })
	if t2.At2(0.5, 0.5) != 1 {
		t.Error("At2")
	}
	t4 := MustNew(Uniform("a", 0, 1, 2), Uniform("b", 0, 1, 2), Uniform("n", 0, 1, 2), Uniform("o", 0, 1, 2))
	fill(t4, func(c []float64) float64 { return c[0] + c[1] + c[2] + c[3] })
	if t4.At(0.5, 0.5, 0.5, 0.5) != 2 {
		t.Error("At rank 4")
	}
}

// Property: interpolated values over a 4-D table are bounded by the min/max
// of the stored data (multilinear interpolation is a convex combination).
func TestQuickInterpConvexity(t *testing.T) {
	tb := MustNew(
		Uniform("a", 0, 1, 3), Uniform("b", 0, 1, 3),
		Uniform("n", 0, 1, 3), Uniform("o", 0, 1, 3))
	fill(tb, func(c []float64) float64 {
		return math.Sin(7*c[0]) * math.Cos(5*c[1]) * (c[2] - 0.5) * (c[3] + 0.2)
	})
	lo, hi := tb.MinMax()
	f := func(a, b, n, o float64) bool {
		clamp01 := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			return math.Abs(math.Mod(x, 1.4)) // intentionally allows out-of-span values
		}
		v := tb.At(clamp01(a), clamp01(b), clamp01(n), clamp01(o))
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Grad is the exact derivative of At inside a cell.
func TestQuickGradConsistency(t *testing.T) {
	tb := MustNew(Uniform("x", 0, 2, 5), Uniform("y", 0, 2, 5))
	fill(tb, func(c []float64) float64 { return c[0]*c[0] + 3*c[1] })
	f := func(px, py float64) bool {
		x := 0.1 + math.Abs(math.Mod(px, 1.8))
		y := 0.1 + math.Abs(math.Mod(py, 1.8))
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		v0, g := gradAt(tb, x, y)
		const h = 1e-8
		vx := tb.At(x+h, y)
		vy := tb.At(x, y+h)
		okx := math.Abs((vx-v0)/h-g[0]) < 1e-4*(1+math.Abs(g[0]))
		oky := math.Abs((vy-v0)/h-g[1]) < 1e-4*(1+math.Abs(g[1]))
		return okx && oky
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
