package nldm

import (
	"math"
	"sync"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/units"
	"mcsm/internal/wave"
)

var (
	libOnce sync.Once
	libNOR  *Library
	libErr  error
)

func nor2Lib(t *testing.T) *Library {
	t.Helper()
	libOnce.Do(func() {
		tech := cells.Default130()
		spec, err := cells.Get("NOR2")
		if err != nil {
			libErr = err
			return
		}
		cfg := Config{
			Slews: []float64{40 * units.PS, 120 * units.PS, 300 * units.PS},
			Loads: []float64{2e-15, 5e-15, 12e-15},
			Dt:    2 * units.PS,
		}
		libNOR, libErr = Characterize(tech, spec, cfg)
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return libNOR
}

func TestCharacterizeArcs(t *testing.T) {
	lib := nor2Lib(t)
	// 2 inputs × 2 directions.
	if len(lib.Arcs) != 4 {
		t.Fatalf("arcs = %d, want 4", len(lib.Arcs))
	}
	for _, a := range lib.Arcs {
		if a.OutRise == a.InputRise {
			t.Errorf("NOR2 arc %s must invert", a.Input)
		}
		min, _ := a.Delay.MinMax()
		if min <= 0 {
			t.Errorf("arc %s rise=%v has non-positive delay", a.Input, a.InputRise)
		}
	}
}

func TestDelayMonotoneInLoad(t *testing.T) {
	lib := nor2Lib(t)
	arc, err := lib.FindArc("NOR2", "A", false)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, load := range []float64{2e-15, 4e-15, 8e-15, 12e-15} {
		d, s := arc.Evaluate(100e-12, load)
		if d <= prev {
			t.Errorf("delay not increasing with load at %g: %g after %g", load, d, prev)
		}
		if s <= 0 {
			t.Errorf("slew %g at load %g", s, load)
		}
		prev = d
	}
}

func TestFindArcMissing(t *testing.T) {
	lib := nor2Lib(t)
	if _, err := lib.FindArc("NOR2", "Z", true); err == nil {
		t.Error("missing arc accepted")
	}
	if _, err := lib.FindArc("NAND9", "A", true); err == nil {
		t.Error("missing cell accepted")
	}
}

func TestOutputRamp(t *testing.T) {
	lib := nor2Lib(t)
	arc, err := lib.FindArc("NOR2", "A", false) // input falls → output rises
	if err != nil {
		t.Fatal(err)
	}
	vdd := 1.2
	tIn50 := 1e-9
	slewIn := 100e-12
	load := 5e-15
	delay, slewOut := arc.Evaluate(slewIn, load)
	w := arc.OutputRamp(vdd, tIn50, slewIn, load, 4e-9)
	// The 50% crossing must land at tIn50+delay.
	tc, ok := w.CrossTime(vdd/2, true, 0)
	if !ok {
		t.Fatal("no crossing in reconstructed ramp")
	}
	if math.Abs(tc-(tIn50+delay)) > 1e-13 {
		t.Errorf("ramp 50%% at %g, want %g", tc, tIn50+delay)
	}
	// And its 10–90% transition equals the predicted slew.
	s, err := wave.TransitionTime(w, vdd, true, 0.1, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-slewOut) > 1e-13 {
		t.Errorf("ramp slew %g, want %g", s, slewOut)
	}
}

// NLDM is blind to waveform shape: two different input *shapes* with equal
// arrival and slew produce identical predictions by construction. This test
// pins the structural property the paper criticizes.
func TestShapeBlindness(t *testing.T) {
	lib := nor2Lib(t)
	arc, err := lib.FindArc("NOR2", "A", false)
	if err != nil {
		t.Fatal(err)
	}
	d1, s1 := arc.Evaluate(100e-12, 5e-15)
	d2, s2 := arc.Evaluate(100e-12, 5e-15) // same parameters — any shape maps here
	if d1 != d2 || s1 != s2 {
		t.Error("NLDM evaluation must be a pure function of (slew, load)")
	}
}

func TestConfigValidation(t *testing.T) {
	tech := cells.Default130()
	spec, _ := cells.Get("INV")
	if _, err := Characterize(tech, spec, Config{Slews: []float64{1e-12}, Loads: []float64{1e-15, 2e-15}}); err == nil {
		t.Error("1-point slew grid accepted")
	}
}

func TestDefaultConfig(t *testing.T) {
	tech := cells.Default130()
	cfg := DefaultConfig(tech)
	if len(cfg.Slews) < 3 || len(cfg.Loads) < 3 || cfg.Dt <= 0 {
		t.Errorf("default config incomplete: %+v", cfg)
	}
}

// TestBenchStopPrefix: on NAND2 benches (each pin and direction, at the
// grid corners), the early-stopped record is a bit-identical prefix of the
// full-horizon record, far shorter than it, and both measure the same
// delay and slew bit for bit.
func TestBenchStopPrefix(t *testing.T) {
	tech := cells.Default130()
	spec, err := cells.Get("NAND2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tech)
	bits := math.Float64bits
	for _, pin := range spec.Inputs {
		for _, inputRise := range []bool{true, false} {
			for _, sl := range [][2]float64{{cfg.Slews[0], cfg.Loads[0]}, {cfg.Slews[len(cfg.Slews)-1], cfg.Loads[len(cfg.Loads)-1]}} {
				b := newBench(tech, spec, pin, inputRise, sl[0], sl[1])
				early, err := b.run(cfg.Dt)
				if err != nil {
					t.Fatal(err)
				}
				full, err := spice.NewEngine(b.ckt, spice.DefaultOptions()).Run(0, b.horizon, cfg.Dt)
				if err != nil {
					t.Fatal(err)
				}
				we, wf := early.Wave(b.out), full.Wave(b.out)
				if 2*we.Len() > wf.Len() {
					t.Errorf("%s rise=%v %v: early run kept %d of %d samples", pin, inputRise, sl, we.Len(), wf.Len())
				}
				for k := range we.T {
					if bits(we.T[k]) != bits(wf.T[k]) || bits(we.V[k]) != bits(wf.V[k]) {
						t.Fatalf("%s rise=%v %v step %d: (%v, %v), full (%v, %v)", pin, inputRise, sl, k, we.T[k], we.V[k], wf.T[k], wf.V[k])
					}
				}
				de, se, err := b.measure(we)
				if err != nil {
					t.Fatal(err)
				}
				df, sf, err := b.measure(wf)
				if err != nil {
					t.Fatal(err)
				}
				if bits(de) != bits(df) || bits(se) != bits(sf) {
					t.Errorf("%s rise=%v %v: early (%v, %v), full (%v, %v)", pin, inputRise, sl, de, se, df, sf)
				}
			}
		}
	}
}

// TestNoCrossingRunsToHorizon: a point whose output cannot finish its
// transition within the horizon runs every step and fails with the error
// the full-horizon measurement gives — the 50% crossing missing under a
// 1 pF load, the far slew threshold missing under 0.4 pF.
func TestNoCrossingRunsToHorizon(t *testing.T) {
	tech := cells.Default130()
	spec, err := cells.Get("INV")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		load float64
		want string
	}{
		{1e-12, "nldm: INV/A rise=true slew=30ps load=1pF: wave: output never crosses 50% level after input event"},
		{0.4e-12, "nldm: INV/A rise=true slew=30ps load=400fF: wave: no falling low-threshold crossing"},
	} {
		cfg := Config{Slews: []float64{30 * units.PS, 80 * units.PS}, Loads: []float64{tc.load, 2 * tc.load}, Dt: 2 * units.PS}
		if _, err := Characterize(tech, spec, cfg); err == nil || err.Error() != tc.want {
			t.Errorf("load %g: err %v, want %q", tc.load, err, tc.want)
		}
		b := newBench(tech, spec, "A", true, cfg.Slews[0], tc.load)
		res, err := b.run(cfg.Dt)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := spice.FixedSteps(0, b.horizon, cfg.Dt); res.Steps() != n+1 {
			t.Errorf("load %g: run stopped after %d of %d steps", tc.load, res.Steps()-1, n)
		}
	}
}

// maxStepShare bounds the transient steps NAND2's DefaultConfig
// characterization runs, as a share of its full-horizon steps. The runs
// end at the step where the delay and slew measurements first succeed;
// the share measured when the stop went in is in CHANGES.md.
const maxStepShare = 0.20

// TestCharacterizeStepShare is the host-independent gate on the early
// stop: it counts the steps of every NAND2 table point at DefaultConfig
// against the full horizon's.
func TestCharacterizeStepShare(t *testing.T) {
	tech := cells.Default130()
	spec, err := cells.Get("NAND2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tech)
	var ran, horizon int
	for _, pin := range spec.Inputs {
		for _, inputRise := range []bool{true, false} {
			for _, slew := range cfg.Slews {
				for _, load := range cfg.Loads {
					b := newBench(tech, spec, pin, inputRise, slew, load)
					res, err := b.run(cfg.Dt)
					if err != nil {
						t.Fatal(err)
					}
					n, err := spice.FixedSteps(0, b.horizon, cfg.Dt)
					if err != nil {
						t.Fatal(err)
					}
					ran += res.Steps() - 1
					horizon += n
				}
			}
		}
	}
	share := float64(ran) / float64(horizon)
	t.Logf("NAND2 at DefaultConfig: %d of %d full-horizon steps (%.1f%%)", ran, horizon, 100*share)
	if share > maxStepShare {
		t.Errorf("NAND2 characterization ran %d of %d full-horizon steps (%.1f%%), ceiling %.0f%%",
			ran, horizon, 100*share, 100*maxStepShare)
	}
}
