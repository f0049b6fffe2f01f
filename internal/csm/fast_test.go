package csm

import (
	"testing"

	"mcsm/internal/cells"
)

// TestSeedStep pins the adaptive-dt warm-start seed: the median accepted
// step of the previous ramp, clamped into the new ramp's [DtMin, DtMax].
func TestSeedStep(t *testing.T) {
	times := []float64{0, 1e-12, 3e-12, 6e-12, 10e-12} // diffs 1,2,3,4 ps → median 2.5 ps... sorted {1,2,3,4}: idx 2 → 3 ps
	cases := []struct {
		times      []float64
		dtMin, max float64
		want       float64
	}{
		{times, 0.1e-12, 100e-12, 3e-12},
		{times, 5e-12, 100e-12, 5e-12},         // clamp up
		{times, 0.1e-12, 2e-12, 2e-12},         // clamp down
		{[]float64{0, 1e-12}, 1e-12, 9e-12, 0}, // too short: no seed
		{nil, 1e-12, 9e-12, 0},
	}
	for i, tc := range cases {
		if got := seedStep(tc.times, tc.dtMin, tc.max); got != tc.want {
			t.Errorf("case %d: seedStep = %g, want %g", i, got, tc.want)
		}
	}
}

// TestFastConfigSmoke characterizes the cheapest cell through the fast
// solver path end to end and checks the model is structurally valid. (The
// quantitative fast-vs-exact accuracy bound lives in internal/sweep, which
// can compare delay surfaces.)
func TestFastConfigSmoke(t *testing.T) {
	cfg := CoarseConfig()
	cfg.Fast = true
	tech := cells.Default130()
	spec, err := cells.Get("INV")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Characterize(tech, spec, KindSIS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
