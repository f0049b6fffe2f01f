package sta_test

import (
	"math"
	"slices"
	"testing"

	"mcsm/internal/spice"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

// TestResolvedGridCarried: stage solves on resolved options record on the
// one grid ResolveOptions built, so their outputs share one T; a copy of
// the options whose Horizon changed after resolution records on a grid of
// its own window instead of the stale one.
func TestResolvedGridCarried(t *testing.T) {
	models := testutil.CoarseNAND2Models(t)
	nl, primary, opt := testutil.C17Fixture(t)
	vdd, opt, err := sta.Setup(models, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, inst := range nl.Instances {
		if inst.Name == "G10" {
			idx = i
		}
	}
	fanouts := nl.Fanouts()
	eval := func(o sta.Options) wave.Waveform {
		t.Helper()
		w, _, err := sta.EvalStage(nl, models, fanouts, idx, primary, vdd, o)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sameTimes := func(w wave.Waveform, horizon, dt float64) bool {
		g, err := spice.NewGrid(0, horizon, dt)
		if err != nil {
			t.Fatal(err)
		}
		return slices.EqualFunc(w.T, g.Times(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}

	a, b := eval(opt), eval(opt)
	if &a.T[0] != &b.T[0] {
		t.Fatal("two solves on resolved options record their own times")
	}
	if !sameTimes(a, opt.Horizon, opt.Dt) {
		t.Fatal("the resolved grid does not hold the window's times")
	}

	moved := opt
	moved.Horizon = opt.Horizon - 0.5e-9
	c := eval(moved)
	if &c.T[0] == &a.T[0] || !sameTimes(c, moved.Horizon, moved.Dt) {
		t.Fatalf("a solve on options whose Horizon moved to %g recorded on the stale grid (last time %g)", moved.Horizon, c.T[len(c.T)-1])
	}
}
