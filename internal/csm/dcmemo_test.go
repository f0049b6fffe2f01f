package csm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

const (
	memoStop = 400e-12
	memoDt   = 2e-12
)

// plainStage runs a stage without the memo: a fresh engine whose Run (or
// RunAdaptive, when adaptive is set) solves the DC operating point
// itself, recording every unknown.
func plainStage(t *testing.T, m *Model, inputs []wave.Waveform, load Load, start float64, adaptive bool) (out, vn wave.Waveform) {
	t.Helper()
	c, cell, outN, err := buildStage(m, inputs, load)
	if err != nil {
		t.Fatal(err)
	}
	eng := spice.NewEngine(c, spice.DefaultOptions())
	var res *spice.Result
	if adaptive {
		res, err = eng.RunAdaptive(start, memoStop, spice.DefaultAdaptive())
	} else {
		res, err = eng.Run(start, memoStop, memoDt)
	}
	if err != nil {
		t.Fatal(err)
	}
	out = res.Wave(outN)
	if m.Kind == KindMCSM {
		vn = res.AuxWave(cell.VNIndex())
	}
	return out, vn
}

// memoStage runs the memoized entry point matching plainStage.
func memoStage(t *testing.T, m *Model, inputs []wave.Waveform, load Load, start float64, adaptive bool) *StageResult {
	t.Helper()
	var sr *StageResult
	var err error
	if adaptive {
		sr, err = SimulateStageAdaptive(m, inputs, load, start, memoStop, spice.DefaultAdaptive())
	} else {
		sr, err = SimulateStage(m, inputs, load, start, memoStop, memoDt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// memoInputs returns the stage inputs of one start case: "rail" starts
// every input on a rail, "mid-rail" starts input A at Vdd/2, and
// "mid-ramp" starts the window a sixth of the way up A's ramp (the
// returned start time). Input B, when the model has one, falls from Vdd
// after that.
func memoInputs(m *Model, startCase string) ([]wave.Waveform, float64) {
	vdd := m.Vdd
	a := wave.SaturatedRamp(0, vdd, 40e-12, 60e-12, memoStop)
	start := 0.0
	switch startCase {
	case "mid-rail":
		a = wave.SaturatedRamp(vdd/2, vdd, 40e-12, 60e-12, memoStop)
	case "mid-ramp":
		start = 50e-12
	}
	inputs := []wave.Waveform{a}
	if len(m.Inputs) == 2 {
		inputs = append(inputs, wave.SaturatedRamp(vdd, 0, 60e-12, 80e-12, memoStop))
	}
	return inputs, start
}

// memoModels are the stage models the memo tests cover: SIS, the MIS
// baseline and MCSM on both two-input cells.
func memoModels(t *testing.T) map[string]*Model {
	return map[string]*Model{
		"INV/SIS":           fixtureModel(t, "INV", KindSIS),
		"NOR2/MIS-baseline": fixtureModel(t, "NOR2", KindMISBaseline),
		"NOR2/MCSM":         fixtureModel(t, "NOR2", KindMCSM),
		"NAND2/MCSM":        fixtureModel(t, "NAND2", KindMCSM),
	}
}

// TestStageDCMemoOracle: a memoized stage solve — the first call, which
// may solve and store the operating point, and a repeat, which reads it
// back — records Out and VN bit-identical to a fresh engine's Run or
// RunAdaptive, for every model kind, every load kind (capacitive loads
// use the memo, RC and π loads bypass it) and inputs starting on a rail,
// mid-rail and mid-ramp.
func TestStageDCMemoOracle(t *testing.T) {
	for name, m := range memoModels(t) {
		loads := map[string]Load{
			"cap":      CapLoad(3e-15),
			"receiver": ReceiverLoad{Model: m, InputIndex: 0, Count: 2},
			"multi":    MultiLoad{CapLoad(1e-15), ReceiverLoad{Model: m, InputIndex: 0, Count: 1}},
			"rc":       RCLoad{R: 200, C: 3e-15},
			"pi":       PiLoad{C1: 1e-15, R: 150, C2: 2e-15},
		}
		for loadName, load := range loads {
			for _, startCase := range []string{"rail", "mid-rail", "mid-ramp"} {
				inputs, start := memoInputs(m, startCase)
				for _, adaptive := range []bool{false, true} {
					what := fmt.Sprintf("%s %s load, %s start, adaptive=%v", name, loadName, startCase, adaptive)
					wantOut, wantVN := plainStage(t, m, inputs, load, start, adaptive)
					for call := 1; call <= 2; call++ {
						sr := memoStage(t, m, inputs, load, start, adaptive)
						requireSameWave(t, fmt.Sprintf("%s, call %d: Out", what, call), sr.Out, wantOut)
						requireSameWave(t, fmt.Sprintf("%s, call %d: VN", what, call), sr.VN, wantVN)
					}
					if !adaptive {
						out, err := SimulateStageOut(m, inputs, load, start, memoStop, memoDt)
						if err != nil {
							t.Fatal(err)
						}
						requireSameWave(t, what+": SimulateStageOut", out, wantOut)
					}
				}
			}
		}
	}
}

// TestStageDCMemoHit: the first solve of a new operating point runs one
// DC solve and stores it; repeats, fixed-step or adaptive, run none. A
// load that conducts at DC bypasses the memo and solves every time.
func TestStageDCMemoHit(t *testing.T) {
	fresh := *fixtureModel(t, "NOR2", KindMCSM)
	fresh.dc = nil // an empty memo, so the first solve misses
	m := &fresh
	calls, restore := CountStageDC()
	defer restore()
	a := wave.Constant(0.123456789, 0, memoStop)
	b := wave.SaturatedRamp(m.Vdd, 0, 60e-12, 80e-12, memoStop)
	inputs := []wave.Waveform{a, b}

	before := ReadStageDCStats()
	memoStage(t, m, inputs, CapLoad(2e-15), 0, false)
	if n := calls(); n != 1 {
		t.Fatalf("first solve ran %d DC solves, want 1", n)
	}
	memoStage(t, m, inputs, CapLoad(2e-15), 0, false)
	memoStage(t, m, inputs, MultiLoad{CapLoad(1e-15)}, 0, true)
	if _, err := SimulateStageOut(m, inputs, nil, 0, memoStop, memoDt); err != nil {
		t.Fatal(err)
	}
	if n := calls(); n != 1 {
		t.Fatalf("repeated solves ran %d DC solves in all, want 1", n)
	}
	memoStage(t, m, inputs, RCLoad{R: 100, C: 2e-15}, 0, false)
	memoStage(t, m, inputs, RCLoad{R: 100, C: 2e-15}, 0, false)
	if n := calls(); n != 3 {
		t.Fatalf("RC-loaded solves ran %d DC solves in all, want 3", n)
	}
	after := ReadStageDCStats()
	if got := (StageDCStats{after.Hits - before.Hits, after.Misses - before.Misses, after.Bypassed - before.Bypassed}); got != (StageDCStats{Hits: 3, Misses: 1, Bypassed: 2}) {
		t.Errorf("stage DC counts moved by %+v, want 3 hits, 1 miss, 2 bypassed", got)
	}
}

// TestStageDCMemoModelCopy: a by-value copy of a model shares its memo
// but, with another Io table, never reads the original's entry: its
// solve equals a fresh Run of the copy, and the original still reads its
// own.
func TestStageDCMemoModelCopy(t *testing.T) {
	m := fixtureModel(t, "NAND2", KindMCSM)
	inputs, _ := memoInputs(m, "rail")
	load := CapLoad(2e-15)
	memoStage(t, m, inputs, load, 0, false)

	cp := *m
	cp.Io = m.Io.Map(func(v float64) float64 { return 1.5 * v })
	calls, restore := CountStageDC()
	defer restore()
	wantOut, wantVN := plainStage(t, &cp, inputs, load, 0, false)
	sr := memoStage(t, &cp, inputs, load, 0, false)
	if n := calls(); n != 1 {
		t.Fatalf("the copy's first solve ran %d DC solves, want 1", n)
	}
	requireSameWave(t, "copy Out", sr.Out, wantOut)
	requireSameWave(t, "copy VN", sr.VN, wantVN)

	origOut, origVN := plainStage(t, m, inputs, load, 0, false)
	orig := memoStage(t, m, inputs, load, 0, false)
	requireSameWave(t, "original Out", orig.Out, origOut)
	requireSameWave(t, "original VN", orig.VN, origVN)
	if n := calls(); n != 1 {
		t.Fatalf("the original's repeat ran %d DC solves, want 0", n-1)
	}
	if math.Float64bits(origVN.At(0)) == math.Float64bits(wantVN.At(0)) &&
		math.Float64bits(origOut.Last()) == math.Float64bits(wantOut.Last()) {
		t.Error("scaling Io moved neither the operating point nor the final output")
	}
}

// TestStageDCMemoFailure: a DC solve that fails stores nothing, so the
// same stage fails again, solving again, with the same error.
func TestStageDCMemoFailure(t *testing.T) {
	m := synthModel(rand.New(rand.NewSource(21)), false, false, false)
	for k := range m.Io.Data {
		m.Io.Data[k] = math.NaN()
	}
	calls, restore := CountStageDC()
	defer restore()
	inputs := []wave.Waveform{wave.Constant(0, 0, memoStop), wave.Constant(1.2, 0, memoStop)}
	_, err1 := SimulateStage(m, inputs, CapLoad(1e-15), 0, memoStop, memoDt)
	_, err2 := SimulateStage(m, inputs, CapLoad(1e-15), 0, memoStop, memoDt)
	if err1 == nil || err2 == nil {
		t.Fatalf("stage with a NaN Io table: errors %v, %v; want both to fail", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Errorf("second failure %q differs from the first %q", err2, err1)
	}
	if n := calls(); n != 2 {
		t.Errorf("two failing solves ran %d DC solves, want 2", n)
	}
}

// TestStageDCMemoConcurrent: goroutines solving stages of one model at
// once (as level-parallel graphs, Monte-Carlo workers and service
// requests do) each get the serial answer, whether their operating point
// was stored, stored by another goroutine meanwhile, or missing.
func TestStageDCMemoConcurrent(t *testing.T) {
	m := fixtureModel(t, "NOR2", KindMCSM)
	tech := cells.Default130()
	var cases [][]wave.Waveform
	for _, va := range []float64{0, 0.3111, 0.7111, tech.Vdd} {
		for _, vb := range []float64{0, tech.Vdd} {
			cases = append(cases, []wave.Waveform{
				wave.SaturatedRamp(va, tech.Vdd-va, 40e-12, 60e-12, memoStop),
				wave.Constant(vb, 0, memoStop),
			})
		}
	}
	load := CapLoad(2e-15)
	want := make([]wave.Waveform, len(cases))
	for i, in := range cases {
		want[i], _ = plainStage(t, m, in, load, 0, false)
	}
	const workers, solves = 8, 12
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < solves; s++ {
				i := (w*5 + s*3) % len(cases)
				out, err := SimulateStageOut(m, cases[i], load, 0, memoStop, memoDt)
				if err != nil {
					errs <- err
					return
				}
				for k := range out.V {
					if math.Float64bits(out.V[k]) != math.Float64bits(want[i].V[k]) {
						errs <- fmt.Errorf("worker %d, case %d: sample %d = %v, want %v", w, i, k, out.V[k], want[i].V[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDCMemoGenerations: a memo keeps its current generation whole, hands
// it to the previous generation when it fills, and moves a previous
// entry back on a hit; an entry two generations old is gone.
func TestDCMemoGenerations(t *testing.T) {
	d := &dcMemo{cur: map[dcKey][]float64{}}
	key := func(i int) dcKey { return dcKey{input: [2]uint64{uint64(i)}} }
	for i := 0; i < stageDCGen; i++ {
		d.put(key(i), []float64{float64(i)})
	}
	if len(d.cur) != stageDCGen || d.old != nil {
		t.Fatalf("after %d puts: %d current, %d previous entries", stageDCGen, len(d.cur), len(d.old))
	}
	d.put(key(stageDCGen), []float64{stageDCGen})
	if len(d.cur) != 1 || len(d.old) != stageDCGen {
		t.Fatalf("after the generation filled: %d current, %d previous entries", len(d.cur), len(d.old))
	}
	if x, ok := d.get(key(7)); !ok || x[0] != 7 {
		t.Fatalf("previous-generation entry 7: %v, %v", x, ok)
	}
	if _, ok := d.cur[key(7)]; !ok {
		t.Error("a previous-generation hit did not move back to the current generation")
	}
	for i := stageDCGen + 1; i < 2*stageDCGen; i++ {
		d.put(key(i), []float64{float64(i)})
	}
	if _, ok := d.get(key(3)); ok {
		t.Error("an entry two generations old is still there")
	}
	if x, ok := d.get(key(7)); !ok || x[0] != 7 {
		t.Errorf("the promoted entry 7 was lost: %v, %v", x, ok)
	}
	if n := len(d.cur) + len(d.old); n > 2*stageDCGen {
		t.Errorf("memo holds %d entries, more than %d", n, 2*stageDCGen)
	}
}
