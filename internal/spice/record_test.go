package spice

import (
	"math"
	"strings"
	"testing"

	"mcsm/internal/wave"
)

// TestRunStepBound: a fixed-step run whose step count is not finite or
// exceeds MaxSteps fails before its first step. A dt of 1e-30 s used to
// overflow the count to a negative number and return a one-point record
// with no error; 1e-18 s asked for 4·10⁹ steps. The runs below stay
// cheap even if the bound breaks: the overflow returns at once, and one
// step past the bound is a second of work.
func TestRunStepBound(t *testing.T) {
	for _, dt := range []float64{1e-30, 1e-18, 4e-9 / (MaxSteps + 1)} {
		if _, err := FixedSteps(0, 4e-9, dt); err == nil || !strings.Contains(err.Error(), "more than") {
			t.Errorf("FixedSteps(0, 4n, %g): err = %v, want the step-count bound", dt, err)
		}
	}
	for _, dt := range []float64{math.NaN(), math.Inf(1), -1e-12, 0} {
		if _, err := FixedSteps(0, 4e-9, dt); err == nil {
			t.Errorf("FixedSteps(0, 4n, %g) accepted", dt)
		}
	}
	if steps, err := FixedSteps(0, 4e-9, 4e-9/MaxSteps); err != nil || steps != MaxSteps {
		t.Errorf("FixedSteps at the bound = %d, %v; want %d", steps, err, MaxSteps)
	}
	c := NewCircuit()
	n := c.Node("n")
	c.AddVSource("V", n, Ground, DC(1))
	e := NewEngine(c, DefaultOptions())
	for _, dt := range []float64{1e-30, 4e-9 / (MaxSteps + 1)} {
		if _, err := e.Run(0, 4e-9, dt); err == nil {
			t.Fatalf("Run(0, 4n, %g) accepted", dt)
		}
		if _, err := e.RunFrom(make([]float64, e.Unknowns()), 0, 4e-9, dt); err == nil {
			t.Fatalf("RunFrom(0, 4n, %g) accepted", dt)
		}
	}
}

// TestRunKeepRecord: a run that keeps only some unknowns records exactly
// the samples a full run records for them, at the same times, and
// rejects a keep list with an out-of-range or repeated index. Asking the
// partial record for an unknown it did not keep panics.
func TestRunKeepRecord(t *testing.T) {
	full, out := buildInverter(DefaultOptions())
	part, _ := buildInverter(DefaultOptions())
	rf, err := full.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	oi := int(out) - 1
	aux := part.Unknowns() - 1
	in := Node(2) // buildInverter's input node, driven by VIN
	rp, err := part.Run(0, 3e-9, 1e-12, oi, aux, int(in)-1)
	if err != nil {
		t.Fatal(err)
	}
	// The recorded input follows its source (an absolute check: both
	// records could share a wrong column).
	stim := wave.SaturatedRamp(0, 1.2, 0.5e-9, 80e-12, 3e-9)
	for _, r := range []*Result{rf, rp} {
		w := r.Wave(in)
		for k, tk := range w.T {
			if d := math.Abs(w.V[k] - stim.At(tk)); d > 1e-9 {
				t.Fatalf("input node at %g s: %v, source %v", tk, w.V[k], stim.At(tk))
			}
		}
	}
	if rp.Steps() != rf.Steps() {
		t.Fatalf("partial record has %d steps, full %d", rp.Steps(), rf.Steps())
	}
	wf, wp := rf.Wave(out), rp.Wave(out)
	af, ap := rf.AuxWave(aux), rp.AuxWave(aux)
	for k := range wf.T {
		if math.Float64bits(wf.T[k]) != math.Float64bits(wp.T[k]) ||
			math.Float64bits(wf.V[k]) != math.Float64bits(wp.V[k]) ||
			math.Float64bits(af.V[k]) != math.Float64bits(ap.V[k]) {
			t.Fatalf("step %d: full (%v, %v, %v), partial (%v, %v, %v)", k, wf.T[k], wf.V[k], af.V[k], wp.T[k], wp.V[k], ap.V[k])
		}
	}
	for _, keep := range [][]int{{-1}, {part.Unknowns()}, {oi, oi}} {
		if _, err := part.Run(0, 1e-9, 1e-12, keep...); err == nil {
			t.Errorf("keep %v accepted", keep)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("reading an unrecorded unknown did not panic")
		}
	}()
	rp.At(0, 0)
}
