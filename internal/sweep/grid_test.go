package sweep

import (
	"math"
	"testing"
)

func TestSpan(t *testing.T) {
	got := Span(-120e-12, 120e-12, 60e-12)
	want := []float64{-120e-12, -60e-12, 0, 60e-12, 120e-12}
	if len(got) != len(want) {
		t.Fatalf("span = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-18 {
			t.Errorf("span[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// The zero crossing must be exactly 0 (the canonical simultaneous
	// event), not an accumulation residue.
	if got[2] != 0 {
		t.Errorf("span midpoint = %g, want exact 0", got[2])
	}
	// Degenerate spans collapse to the lower bound.
	if got := Span(5, 4, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("inverted span = %v", got)
	}
	if got := Span(5, 6, 0); len(got) != 1 || got[0] != 5 {
		t.Errorf("zero-step span = %v", got)
	}
}

// TestGridOrder pins the canonical skew-major enumeration the determinism
// contract (Surface.Results indexing) depends on.
func TestGridOrder(t *testing.T) {
	g := Grid{
		Skews: []float64{-1, 0, 1},
		Slews: []float64{10, 20},
		Loads: []float64{100, 200},
	}
	if g.Size() != 12 {
		t.Fatalf("size = %d, want 12", g.Size())
	}
	want := []Point{
		{-1, 10, 100}, {-1, 10, 200}, {-1, 20, 100}, {-1, 20, 200},
		{0, 10, 100}, {0, 10, 200}, {0, 20, 100}, {0, 20, 200},
		{1, 10, 100}, {1, 10, 200}, {1, 20, 100}, {1, 20, 200},
	}
	for i, w := range want {
		if got := g.At(i); got != w {
			t.Errorf("At(%d) = %+v, want %+v", i, got, w)
		}
	}
}

func TestGridExtremes(t *testing.T) {
	g := Grid{Skews: []float64{-3, -1, 2}, Slews: []float64{4, 8}, Loads: []float64{1}}
	if got := g.MaxSkew(); got != 2 {
		t.Errorf("MaxSkew = %g", got)
	}
	if got := g.MinSkew(); got != -3 {
		t.Errorf("MinSkew = %g", got)
	}
	if got := g.MaxSlew(); got != 8 {
		t.Errorf("MaxSlew = %g", got)
	}
	// All-negative skews: the reference event at 0 bounds the max.
	neg := Grid{Skews: []float64{-3, -1}}
	if got := neg.MaxSkew(); got != 0 {
		t.Errorf("all-negative MaxSkew = %g, want 0", got)
	}
	pos := Grid{Skews: []float64{1, 3}}
	if got := pos.MinSkew(); got != 0 {
		t.Errorf("all-positive MinSkew = %g, want 0", got)
	}
}

func TestGridValidate(t *testing.T) {
	if err := DefaultGrid().Validate(); err != nil {
		t.Errorf("default grid invalid: %v", err)
	}
	if err := QuickGrid().Validate(); err != nil {
		t.Errorf("quick grid invalid: %v", err)
	}
	bad := []Grid{
		{},
		{Skews: []float64{0}, Slews: []float64{80e-12}},
		{Skews: []float64{0}, Slews: []float64{0}, Loads: []float64{1e-15}},
		{Skews: []float64{0}, Slews: []float64{80e-12}, Loads: []float64{-1e-15}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
}

func TestParseGrid(t *testing.T) {
	base := DefaultGrid()

	// Empty spec keeps the base grid.
	g, err := ParseGrid("", base)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != base.Size() {
		t.Errorf("empty spec changed the grid")
	}

	// Full override with ranges and lists.
	g, err = ParseGrid("skew=-80p:80p:40p;slew=40p,80p;load=2f,5f,10f", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Skews) != 5 || len(g.Slews) != 2 || len(g.Loads) != 3 {
		t.Fatalf("parsed grid = %+v", g)
	}
	if g.Skews[0] != -80e-12 || g.Skews[4] != 80e-12 {
		t.Errorf("skews = %v", g.Skews)
	}
	if g.Loads[1] != 5e-15 {
		t.Errorf("loads = %v", g.Loads)
	}

	// Partial override keeps the other axes.
	g, err = ParseGrid("slew=100p", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Slews) != 1 || g.Slews[0] != 100e-12 {
		t.Errorf("slews = %v", g.Slews)
	}
	if len(g.Skews) != len(base.Skews) {
		t.Errorf("partial override clobbered skews")
	}

	// Nano suffix and plain floats.
	g, err = ParseGrid("skew=-0.1n,0,1e-10", base)
	if err != nil {
		t.Fatal(err)
	}
	if g.Skews[0] != -0.1e-9 || g.Skews[2] != 1e-10 {
		t.Errorf("skews = %v", g.Skews)
	}

	// Error cases.
	for _, bad := range []string{
		"skew",          // no '='
		"tilt=1p",       // unknown axis
		"skew=1p:2p",    // malformed range
		"skew=2p:1p:1p", // hi < lo
		"skew=1p:2p:0",  // zero step
		"slew=abc",      // not a number
		"load=0",        // non-positive load
		"slew=",         // empty list
	} {
		if _, err := ParseGrid(bad, base); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
