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

// sameRecordPrefix fails unless every time and every column of kept in
// short equals the full record's at the same step, bit for bit.
func sameRecordPrefix(t *testing.T, short, full *Result, kept []int) {
	t.Helper()
	if short.Steps() > full.Steps() {
		t.Fatalf("record has %d steps, the full run %d", short.Steps(), full.Steps())
	}
	for k := range short.Times {
		if math.Float64bits(short.Times[k]) != math.Float64bits(full.Times[k]) {
			t.Fatalf("step %d: time %v, full run %v", k, short.Times[k], full.Times[k])
		}
		for _, i := range kept {
			if math.Float64bits(short.At(k, i)) != math.Float64bits(full.At(k, i)) {
				t.Fatalf("step %d unknown %d: %v, full run %v", k, i, short.At(k, i), full.At(k, i))
			}
		}
	}
}

// TestRunUntilNeverFires: a stop check that never fires is Run — the same
// times and samples bit for bit, the record length included — and it sees
// the record once after every step, each time one sample longer.
func TestRunUntilNeverFires(t *testing.T) {
	full, _ := buildInverter(DefaultOptions())
	rf, err := full.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildInverter(DefaultOptions())
	calls := 0
	ru, err := e.RunUntil(0, 3e-9, 1e-12, func(r *Result) bool {
		calls++
		if r.Steps() != calls+1 {
			t.Fatalf("check %d sees %d samples, want %d", calls, r.Steps(), calls+1)
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if ru.Steps() != rf.Steps() || calls != rf.Steps()-1 {
		t.Fatalf("RunUntil recorded %d steps over %d checks, Run %d steps", ru.Steps(), calls, rf.Steps())
	}
	all := make([]int, e.Unknowns())
	for i := range all {
		all[i] = i
	}
	sameRecordPrefix(t, ru, rf, all)
}

// TestRunUntilPrefix: a run that stops ends on the step whose check fired,
// and its record — times and every kept column — is a bit-identical
// prefix of the full-horizon run's. It reserved its record as it grew,
// not for the whole horizon.
func TestRunUntilPrefix(t *testing.T) {
	full, out := buildInverter(DefaultOptions())
	oi := int(out) - 1
	aux := full.Unknowns() - 1
	rf, err := full.Run(0, 3e-9, 1e-12, oi, aux)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildInverter(DefaultOptions())
	// Stop once the output has fallen below half the supply.
	early, err := e.RunUntil(0, 3e-9, 1e-12, func(r *Result) bool { return r.Wave(out).Last() < 0.6 }, oi, aux)
	if err != nil {
		t.Fatal(err)
	}
	n := early.Steps()
	if n >= rf.Steps()/2 {
		t.Fatalf("early run kept %d of %d steps", n, rf.Steps())
	}
	if early.At(n-1, oi) >= 0.6 || early.At(n-2, oi) < 0.6 {
		t.Fatalf("run did not end on the first step below 0.6 V: %v then %v", early.At(n-2, oi), early.At(n-1, oi))
	}
	sameRecordPrefix(t, early, rf, []int{oi, aux})
	if c := cap(early.Times); c >= rf.Steps() || c >= 2*max(n, unknownSteps) {
		t.Errorf("run stopped after %d of %d points reserved %d slots", n, rf.Steps(), c)
	}
}
