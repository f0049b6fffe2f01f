package csm

import (
	"math"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/table"
)

// exactRampBench returns an exact-path NAND2 MCSM harness parked at one
// set point, a ramp of its output across the supply, and the unknowns a
// ramp keeps: every pinned source's branch current.
func exactRampBench(t *testing.T) (*harness, rampSpec, []int) {
	t.Helper()
	tech := cells.Default130()
	spec, err := cells.Get("NAND2")
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(tech, spec, spec.ModelInputs, true, false)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := -0.1, tech.Vdd+0.1
	h.setPoint([]float64{lo, tech.Vdd}, 0.3, tech.Vdd/2)
	rs := rampSpec{axis: 3, lo: lo, hi: hi, pad: (hi - lo) / 2, slope: (hi - lo) / 80e-12, tFlat: settleTime}
	var keep []int
	for a := 0; a < 4; a++ {
		src, _ := h.source(a)
		keep = append(keep, src.AuxIndex())
	}
	return h, rs, keep
}

// TestRampStopPrefix: an exact ramp that ends after its last read sample
// records a bit-identical prefix of the full-horizon ramp, and every read
// the caller makes (Waveform.At at the ramp times of the table points)
// returns the full record's value bit for bit.
func TestRampStopPrefix(t *testing.T) {
	h, rs, keep := exactRampBench(t)
	full, err := h.runRamp(rs, 2e-12, math.Inf(1), keep...)
	if err != nil {
		t.Fatal(err)
	}
	pts := table.Uniform("out", rs.lo, rs.hi, 5).Points
	until := rs.timeOf(pts[len(pts)-1])
	early, err := h.runRamp(rs, 2e-12, until, keep...)
	if err != nil {
		t.Fatal(err)
	}
	n := early.Steps()
	if n >= full.Steps() || !(early.Times[n-1] > until) || early.Times[n-2] > until {
		t.Fatalf("ramp kept %d of %d samples, ending at %g s for reads through %g s", n, full.Steps(), early.Times[n-1], until)
	}
	bits := math.Float64bits
	for _, i := range keep {
		we, wf := early.AuxWave(i), full.AuxWave(i)
		for k := range we.T {
			if bits(we.T[k]) != bits(wf.T[k]) || bits(we.V[k]) != bits(wf.V[k]) {
				t.Fatalf("unknown %d step %d: (%v, %v), full (%v, %v)", i, k, we.T[k], we.V[k], wf.T[k], wf.V[k])
			}
		}
		for _, v := range pts {
			if got, want := we.At(rs.timeOf(v)), wf.At(rs.timeOf(v)); bits(got) != bits(want) {
				t.Errorf("unknown %d at %g V: %v, full record %v", i, v, got, want)
			}
		}
	}
}

// TestRampReadAtSampleTime: a read at a time equal to a sample time
// interpolates that sample's segment in the full record, which can differ
// from the sample in its last bit. The stop rule keeps one sample past
// the read, so the early record answers it exactly; a rule that stopped
// at the sample would return the sample itself. The test picks a sample
// where the two differ.
func TestRampReadAtSampleTime(t *testing.T) {
	h, rs, keep := exactRampBench(t)
	full, err := h.runRamp(rs, 2e-12, math.Inf(1), keep...)
	if err != nil {
		t.Fatal(err)
	}
	bits := math.Float64bits
	k, col := -1, -1
	for kk := 1; kk < full.Steps()-1 && k < 0; kk++ {
		for _, i := range keep {
			w := full.AuxWave(i)
			if bits(w.At(w.T[kk])) != bits(w.V[kk]) {
				k, col = kk, i
				break
			}
		}
	}
	if k < 0 {
		t.Fatal("no sample whose interpolated read differs from it: the test cannot tell the stop rules apart")
	}
	tk := full.Times[k]
	early, err := h.runRamp(rs, 2e-12, tk, keep...)
	if err != nil {
		t.Fatal(err)
	}
	want := full.AuxWave(col).At(tk)
	if got := early.AuxWave(col).At(tk); bits(got) != bits(want) {
		t.Errorf("read at sample %d (t=%g s) of unknown %d: %v, full record %v (record ends at %g s)",
			k, tk, col, got, want, early.Times[early.Steps()-1])
	}
}
