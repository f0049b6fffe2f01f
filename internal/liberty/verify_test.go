package liberty

import (
	"math"
	"strings"
	"testing"

	"mcsm/internal/nldm"
	"mcsm/internal/table"
)

// verifyLib builds a small two-arc library for the equality tests.
func verifyLib() *nldm.Library {
	mk := func(scale float64) *table.Table {
		t := table.MustNew(
			table.Axis{Name: "input_net_transition", Points: []float64{10e-12, 80e-12}},
			table.Axis{Name: "total_output_net_capacitance", Points: []float64{1e-15, 8e-15}},
		)
		for i, slew := range t.Axes[0].Points {
			for j, load := range t.Axes[1].Points {
				t.Set(scale*(slew+100*load), i, j)
			}
		}
		return t
	}
	return &nldm.Library{
		Vdd:      1.2,
		InputCap: map[string]float64{"a": 2e-15, "b": 2.5e-15},
		Arcs: []nldm.Arc{
			{Input: "a", InputRise: true, OutRise: false, Delay: mk(1), Slew: mk(0.5)},
			{Input: "b", InputRise: false, OutRise: true, Delay: mk(2), Slew: mk(0.7)},
		},
	}
}

// cloneLib deep-copies a library so mutation tests perturb one bit at a
// time.
func cloneLib(src *nldm.Library) *nldm.Library {
	out := &nldm.Library{Vdd: src.Vdd, InputCap: map[string]float64{}}
	for k, v := range src.InputCap {
		out.InputCap[k] = v
	}
	for _, a := range src.Arcs {
		c := a
		c.Delay = a.Delay.Map(func(v float64) float64 { return v })
		c.Slew = a.Slew.Map(func(v float64) float64 { return v })
		out.Arcs = append(out.Arcs, c)
	}
	return out
}

func TestEqualNLDMIdentical(t *testing.T) {
	a := verifyLib()
	if err := EqualNLDM(a, cloneLib(a)); err != nil {
		t.Fatalf("identical libraries judged unequal: %v", err)
	}
	// Arc order must not matter — equality is by (input, dirs) identity.
	b := cloneLib(a)
	b.Arcs[0], b.Arcs[1] = b.Arcs[1], b.Arcs[0]
	if err := EqualNLDM(a, b); err != nil {
		t.Fatalf("arc order changed the verdict: %v", err)
	}
}

func TestEqualNLDMDetectsEveryField(t *testing.T) {
	base := verifyLib()
	cases := []struct {
		name   string
		mutate func(l *nldm.Library)
		detail string
	}{
		{"vdd", func(l *nldm.Library) { l.Vdd = 1.2000000001 }, "vdd"},
		{"vdd-sign-bit", func(l *nldm.Library) { l.Vdd = math.Copysign(l.Vdd, -1) }, "vdd"},
		{"cap-count", func(l *nldm.Library) { delete(l.InputCap, "b") }, "input-cap count"},
		{"cap-value", func(l *nldm.Library) { l.InputCap["a"] *= 1.0000001 }, "pin a"},
		{"arc-count", func(l *nldm.Library) { l.Arcs = l.Arcs[:1] }, "arc count"},
		{"arc-missing", func(l *nldm.Library) { l.Arcs[1].OutRise = false }, "missing"},
		{"delay-ulp", func(l *nldm.Library) {
			l.Arcs[0].Delay.Data[3] = math.Nextafter(l.Arcs[0].Delay.Data[3], 1)
		}, "delay"},
		{"slew-value", func(l *nldm.Library) { l.Arcs[1].Slew.Data[0] *= 2 }, "slew"},
		// Map shares axis slices between clones, so axis perturbations must
		// rebuild the Axes of the mutated table rather than poke the shared
		// backing array.
		{"axis-point", func(l *nldm.Library) {
			d := l.Arcs[0].Delay
			ax := append([]table.Axis(nil), d.Axes...)
			ax[0] = table.Axis{Name: ax[0].Name, Points: []float64{10e-12, 81e-12}}
			l.Arcs[0].Delay = &table.Table{Axes: ax, Data: d.Data}
		}, "axis 0 point 1"},
		{"axis-len", func(l *nldm.Library) {
			d := l.Arcs[0].Delay
			ax := append([]table.Axis(nil), d.Axes...)
			ax[1] = table.Axis{Name: ax[1].Name, Points: []float64{1e-15}}
			l.Arcs[0].Delay = &table.Table{Axes: ax, Data: d.Data}
		}, "points"},
	}
	for _, tc := range cases {
		mutated := cloneLib(base)
		tc.mutate(mutated)
		err := EqualNLDM(base, mutated)
		if err == nil {
			t.Errorf("%s: mutation not detected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.detail) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.detail)
		}
	}
}

// TestEqualNLDMNaNPayload: NaN compares by bit pattern, so two libraries
// holding the same NaN agree while differing payloads do not slip
// through as "NaN != NaN is always false" equality bugs.
func TestEqualNLDMNaNPayload(t *testing.T) {
	a := verifyLib()
	a.Arcs[0].Delay.Data[0] = math.NaN()
	b := cloneLib(a)
	b.Arcs[0].Delay.Data[0] = math.NaN()
	if err := EqualNLDM(a, b); err != nil {
		t.Fatalf("identical NaN bits judged unequal: %v", err)
	}
}
