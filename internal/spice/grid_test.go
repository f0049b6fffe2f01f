package spice

import (
	"math"
	"math/rand"
	"testing"
)

// mustGrid is NewGrid for a window the test knows is valid.
func mustGrid(t testing.TB, start, stop, dt float64) *Grid {
	t.Helper()
	g, err := NewGrid(start, stop, dt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loopTimes is the oracle: the times the fixed-step loop recorded before
// grids existed, written out as it computed them step by step.
func loopTimes(start, stop, dt float64, nSteps int) []float64 {
	ts := []float64{start}
	for k := 1; k <= nSteps; k++ {
		tEnd := start + float64(k)*dt
		if tEnd > stop {
			tEnd = stop
		}
		if tEnd-(start+float64(k-1)*dt) <= dt*1e-6 {
			break
		}
		ts = append(ts, tEnd)
	}
	return ts
}

// requireGridOracle checks NewGrid(start, stop, dt) against loopTimes bit
// for bit, and that its times are handed out with no room to append.
func requireGridOracle(t *testing.T, start, stop, dt float64) *Grid {
	t.Helper()
	g := mustGrid(t, start, stop, dt)
	steps, _ := FixedSteps(start, stop, dt)
	want := loopTimes(start, stop, dt, steps)
	got := g.Times()
	if len(got) != len(want) || cap(got) != len(got) {
		t.Fatalf("grid [%g,%g] dt=%g: %d times in %d slots, want %d with no spare room", start, stop, dt, len(got), cap(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("grid [%g,%g] dt=%g: time %d = %v, want %v", start, stop, dt, k, got[k], want[k])
		}
	}
	if !g.Spans(start, stop, dt) || g.Start() != start {
		t.Fatalf("grid [%g,%g] dt=%g does not span its own window", start, stop, dt)
	}
	return g
}

// TestGridOracle: a grid's times are the fixed-step loop's per-step
// expression bit for bit, over random windows that start away from zero,
// end on, just past or a sliver past a step, and at the MaxSteps bound.
func TestGridOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ends := []float64{0, 1e-7, 1e-6, 1e-6 * (1 + 1e-9), 1e-6 * (1 - 1e-9), 1e-3, 0.5, 0.999999}
	for i := 0; i < 400; i++ {
		start := (rng.Float64()*2 - 1) * 3e-9
		if i%7 == 0 {
			start = float64(rng.Intn(5)+1) * 1e-9
		}
		dt := math.Ldexp(1+rng.Float64(), -40-rng.Intn(4))
		steps := 1 + rng.Intn(3000)
		frac := ends[i%len(ends)]
		if i%len(ends) == 0 {
			frac = rng.Float64()
		}
		stop := start + (float64(steps)+frac)*dt
		requireGridOracle(t, start, stop, dt)
	}
	// The bound itself: exactly MaxSteps steps is a grid, one more is not.
	requireGridOracle(t, 1e-9, 1e-9+4e-9, 4e-9/MaxSteps)
	if _, err := NewGrid(1e-9, 1e-9+4e-9, 4e-9/(MaxSteps+1)); err == nil {
		t.Error("NewGrid accepted a window of MaxSteps+1 steps")
	}
	g := mustGrid(t, 0, 1e-9, 1e-12)
	if g.Spans(0, 1e-9, 2e-12) || g.Spans(0, 2e-9, 1e-12) || g.Spans(1e-12, 1e-9, 1e-12) {
		t.Error("grid spans another window")
	}
}

// TestRunOnGrid: a run on a grid records what a run with its own times
// records, bit for bit, with its times a view of the grid's that an append
// cannot reach: neither to the final waveform nor to a published prefix,
// whose next grid time lies right behind it. Each window ends a sliver
// past a step, so both runs skip the same final step.
func TestRunOnGrid(t *testing.T) {
	for _, w := range [][3]float64{{0, 2e-9, 1e-12}, {3e-10, 1.3e-9 + 1e-19, 1e-12}, {-1e-10, 4e-10 + 2e-20, 3e-12}} {
		start, stop, dt := w[0], w[1], w[2]
		own, out := buildInverter(DefaultOptions())
		oi := int(out) - 1
		want, err := own.Run(start, stop, dt, oi)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := buildInverter(DefaultOptions())
		x0, err := e.DCAt(start)
		if err != nil {
			t.Fatal(err)
		}
		g := requireGridOracle(t, start, stop, dt)
		var prefix []float64
		got, err := e.RunFrom(x0, g, func(r *Result) {
			if prefix == nil {
				prefix = r.Wave(out).T
			}
		}, oi)
		if err != nil {
			t.Fatal(err)
		}
		sameRecordPrefix(t, got, want, []int{oi})
		if got.Steps() != want.Steps() || got.Steps() != len(g.Times()) {
			t.Fatalf("window %v: grid run %d points, own-times run %d, grid %d", w, got.Steps(), want.Steps(), len(g.Times()))
		}
		wv := got.Wave(out)
		if &wv.T[0] != &g.Times()[0] {
			t.Errorf("window %v: the output's times are not the grid's", w)
		}
		before := append([]float64(nil), g.Times()...)
		_ = append(wv.T, 1)
		_ = append(got.Times, 1)
		_ = append(prefix, 1)
		for k := range before {
			if math.Float64bits(before[k]) != math.Float64bits(g.Times()[k]) {
				t.Fatalf("window %v: an append to a record's times wrote grid time %d", w, k)
			}
		}
	}
}
