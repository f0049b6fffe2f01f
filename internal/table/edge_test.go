package table

import (
	"math"
	"strings"
	"testing"
)

// TestCornerClamping: a query clamped on every axis simultaneously must
// return the stored corner sample exactly, and its gradient must vanish
// in every direction — beyond the span the interpolant is constant.
func TestCornerClamping(t *testing.T) {
	tb := MustNew(
		Uniform("x", 0, 1, 3),
		Uniform("y", -1, 1, 4),
		Uniform("z", 2, 5, 2),
	)
	fill(tb, func(c []float64) float64 { return 1 + 2*c[0] - 3*c[1] + 0.5*c[2] })

	cases := []struct {
		name   string
		query  []float64
		corner []int
	}{
		{"all-low", []float64{-10, -5, 0}, []int{0, 0, 0}},
		{"all-high", []float64{10, 5, 100}, []int{2, 3, 1}},
		{"mixed", []float64{-1, 5, 1}, []int{0, 3, 0}},
	}
	for _, tc := range cases {
		want := tb.Get(tc.corner...)
		got := tb.At(tc.query...)
		if got != want {
			t.Errorf("%s: At(%v) = %g, want corner sample %g", tc.name, tc.query, got, want)
		}
		v, grad := gradAt(tb, tc.query...)
		if v != want {
			t.Errorf("%s: Grad value %g, want %g", tc.name, v, want)
		}
		for i, g := range grad {
			if g != 0 {
				t.Errorf("%s: grad[%d] = %g beyond the span, want 0", tc.name, i, g)
			}
		}
	}
}

// TestOffGridExtrapolationClamp: far outside the grid the value saturates
// at the edge-cell value — no linear extrapolation, however extreme the
// query. This is the Δv safety-margin contract from the paper: overshoot
// beyond [-Δv, Vdd+Δv] reads the boundary sample.
func TestOffGridExtrapolationClamp(t *testing.T) {
	tb := MustNew(Uniform("v", 0, 1, 5))
	fill(tb, func(c []float64) float64 { return c[0] * c[0] })

	edgeLo, edgeHi := tb.At(0), tb.At(1)
	for _, x := range []float64{-1e-9, -1, -1e12, math.Inf(-1)} {
		if got := tb.At(x); got != edgeLo {
			t.Errorf("At(%g) = %g, want clamped %g", x, got, edgeLo)
		}
	}
	for _, x := range []float64{1 + 1e-9, 2, 1e12, math.Inf(1)} {
		if got := tb.At(x); got != edgeHi {
			t.Errorf("At(%g) = %g, want clamped %g", x, got, edgeHi)
		}
	}
	// Clamping must be continuous: the limit from inside equals the edge.
	if got := tb.At(1 - 1e-12); math.Abs(got-edgeHi) > 1e-9 {
		t.Errorf("interior limit %g jumps away from edge %g", got, edgeHi)
	}
}

// TestDegenerateSinglePointAxes: rank-N tables where some (or all) axes
// carry a single breakpoint behave as constant along those axes, with
// zero gradient, while interpolation along the healthy axes survives.
func TestDegenerateSinglePointAxes(t *testing.T) {
	// Fully degenerate: every axis is a single point.
	point := MustNew(Axis{Name: "a", Points: []float64{0.5}}, Axis{Name: "b", Points: []float64{2}})
	point.Set(7.25, 0, 0)
	for _, q := range [][2]float64{{0.5, 2}, {-3, 9}, {1e6, -1e6}} {
		if got := point.At(q[0], q[1]); got != 7.25 {
			t.Errorf("point table At(%v) = %g, want 7.25", q, got)
		}
	}
	v, grad := gradAt(point, 123, -456)
	if v != 7.25 || grad[0] != 0 || grad[1] != 0 {
		t.Errorf("point table Grad = %g, %v; want 7.25 with zero gradient", v, grad)
	}

	// Mixed: one degenerate axis alongside a real one. The interpolant must
	// remain exact along the live axis and flat along the dead one.
	mixed := MustNew(Axis{Name: "dead", Points: []float64{3}}, Uniform("live", 0, 1, 3))
	fill(mixed, func(c []float64) float64 { return 10 * c[1] })
	if got := mixed.At(3, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("mixed At(3, 0.25) = %g, want 2.5", got)
	}
	if got := mixed.At(-99, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("dead axis leaked into the value: %g", got)
	}
	_, grad = gradAt(mixed, 3, 0.25)
	if grad[0] != 0 {
		t.Errorf("gradient along degenerate axis = %g, want 0", grad[0])
	}
	if math.Abs(grad[1]-10) > 1e-9 {
		t.Errorf("gradient along live axis = %g, want 10", grad[1])
	}
}

// TestNonMonotoneAxisRejected: axis validation must catch every ordering
// violation — duplicates, reversals, and non-finite breakpoints — both
// directly and through New.
func TestNonMonotoneAxisRejected(t *testing.T) {
	cases := []struct {
		name   string
		points []float64
		detail string
	}{
		{"empty", nil, "no points"},
		{"duplicate", []float64{0, 1, 1, 2}, "not strictly increasing"},
		{"decreasing", []float64{0, 2, 1}, "not strictly increasing"},
		{"all-equal", []float64{5, 5}, "not strictly increasing"},
		{"nan", []float64{0, math.NaN(), 1}, "non-finite"},
		{"inf", []float64{0, 1, math.Inf(1)}, "non-finite"},
	}
	for _, tc := range cases {
		ax := Axis{Name: tc.name, Points: tc.points}
		err := ax.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.points)
			continue
		}
		if !strings.Contains(err.Error(), tc.detail) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.detail)
		}
		if _, err := New(ax); err == nil {
			t.Errorf("%s: New accepted the invalid axis", tc.name)
		}
	}

	// A valid axis passes, and a bad axis hidden among good ones still fails.
	if err := (Axis{Name: "ok", Points: []float64{0, 1, 2}}).Validate(); err != nil {
		t.Errorf("valid axis rejected: %v", err)
	}
	if _, err := New(Uniform("ok", 0, 1, 3), Axis{Name: "bad", Points: []float64{1, 0}}); err == nil {
		t.Error("New accepted a table with one invalid axis")
	}
}
