package cells

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// evalDC builds the cell with DC sources at the given input levels and
// returns the DC output voltage and the instance.
func evalDC(t *testing.T, spec Spec, levels []float64) (float64, Instance, *spice.Circuit, []float64) {
	t.Helper()
	tech := Default130()
	c := spice.NewCircuit()
	vdd := c.Node("vdd")
	c.AddVSource("VDD", vdd, spice.Ground, spice.DC(tech.Vdd))
	inputs := make([]spice.Node, len(spec.Inputs))
	for i, pin := range spec.Inputs {
		inputs[i] = c.Node("in_" + pin)
		c.AddVSource("V"+pin, inputs[i], spice.Ground, spice.DC(levels[i]))
	}
	out := c.Node("out")
	inst := spec.Build(c, tech, "X", inputs, out, vdd, spec.Drive)
	e := spice.NewEngine(c, spice.DefaultOptions())
	x, err := e.DCAt(0)
	if err != nil {
		t.Fatalf("%s DC at %v: %v", spec.Name, levels, err)
	}
	return x[int(out)-1], inst, c, x
}

// logicFn returns the boolean function of a catalog cell.
func logicFn(name string) func(bits []bool) bool {
	switch name {
	case "INV":
		return func(b []bool) bool { return !b[0] }
	case "NOR2":
		return func(b []bool) bool { return !(b[0] || b[1]) }
	case "NAND2":
		return func(b []bool) bool { return !(b[0] && b[1]) }
	case "NOR3":
		return func(b []bool) bool { return !(b[0] || b[1] || b[2]) }
	case "NAND3":
		return func(b []bool) bool { return !(b[0] && b[1] && b[2]) }
	case "AOI21":
		return func(b []bool) bool { return !((b[0] && b[1]) || b[2]) }
	case "OAI21":
		return func(b []bool) bool { return !((b[0] || b[1]) && b[2]) }
	}
	return nil
}

func TestTruthTables(t *testing.T) {
	tech := Default130()
	for _, spec := range Catalog() {
		fn := logicFn(spec.Name)
		if fn == nil {
			t.Fatalf("no logic function for %s", spec.Name)
		}
		n := len(spec.Inputs)
		for combo := 0; combo < 1<<n; combo++ {
			levels := make([]float64, n)
			bits := make([]bool, n)
			for i := 0; i < n; i++ {
				if combo>>i&1 == 1 {
					levels[i] = tech.Vdd
					bits[i] = true
				}
			}
			vo, _, _, _ := evalDC(t, spec, levels)
			want := fn(bits)
			if want && vo < 0.9*tech.Vdd {
				t.Errorf("%s%v: out=%.3f, want high", spec.Name, bits, vo)
			}
			if !want && vo > 0.1*tech.Vdd {
				t.Errorf("%s%v: out=%.3f, want low", spec.Name, bits, vo)
			}
		}
	}
}

// The paper's §2.2 DC claim: in NOR2 state '10' (A high) the internal node
// sits at Vdd; in state '01' it parks near the body-affected |Vt,p|.
func TestNOR2InternalNodeDCStates(t *testing.T) {
	tech := Default130()
	spec, err := Get("NOR2")
	if err != nil {
		t.Fatal(err)
	}

	_, inst, _, x10 := evalDC(t, spec, []float64{tech.Vdd, 0})
	vn10 := x10[int(inst.Internal["N"])-1]
	if math.Abs(vn10-tech.Vdd) > 0.05 {
		t.Errorf("state '10': VN = %.3f, want ≈ %.2f", vn10, tech.Vdd)
	}

	// True DC in state '01' is the *leakage balance* between M4's
	// subthreshold leak-in (Vsg=0) and M3's leak-out — well below the
	// body-affected |Vt,p| plateau the node shows on nanosecond timescales
	// (the paper ignores leakage; see TestNOR2InternalNodePlateau for the
	// transient plateau).
	_, inst2, _, x01 := evalDC(t, spec, []float64{0, tech.Vdd})
	vn01 := x01[int(inst2.Internal["N"])-1]
	if vn01 < 0.02 || vn01 > 0.35 {
		t.Errorf("state '01': VN = %.3f, want leakage-balance level well below |Vt,p|", vn01)
	}
}

// TestNOR2InternalNodePlateau verifies the paper's §2.2 claim on the
// timescale it actually concerns: entering state '01' dynamically (from
// '00', where N is driven to Vdd), the internal node discharges through M3
// and parks at the body-affected |Vt,p| — not at ground — within the
// nanosecond window.
func TestNOR2InternalNodePlateau(t *testing.T) {
	tech := Default130()
	c := spice.NewCircuit()
	vddN := c.Node("vdd")
	a := c.Node("a")
	b := c.Node("b")
	out := c.Node("out")
	c.AddVSource("VDD", vddN, spice.Ground, spice.DC(tech.Vdd))
	c.AddVSource("VA", a, spice.Ground, spice.DC(0))
	c.AddVSource("VB", b, spice.Ground, wave.SaturatedRamp(0, tech.Vdd, 0.5e-9, 80e-12, 3e-9))
	inst := NOR2(c, tech, "X", []spice.Node{a, b}, out, vddN, 1)
	e := spice.NewEngine(c, spice.DefaultOptions())
	res, err := e.Run(0, 3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	nW := res.Wave(inst.Internal["N"])
	// Before B rises: driven high.
	if v := nW.At(0.3e-9); math.Abs(v-tech.Vdd) > 0.05 {
		t.Errorf("VN before '01' = %.3f, want ≈ Vdd", v)
	}
	// Two nanoseconds into '01': parked near body-affected |Vt,p|
	// (|Vt0,p|=0.32 plus ≈0.1 V of body effect at Vsb≈0.8 V).
	v := nW.At(2.8e-9)
	if v < 0.25 || v > 0.60 {
		t.Errorf("VN plateau = %.3f, want near body-affected |Vt,p| ≈ 0.4", v)
	}
	t.Logf("VN plateau after dynamic '01' entry: %.3f V", v)
}

func TestGetAndCatalog(t *testing.T) {
	if _, err := Get("NOR2"); err != nil {
		t.Error(err)
	}
	if _, err := Get("XYZ"); err == nil {
		t.Error("unknown cell accepted")
	}
	for _, s := range Catalog() {
		if len(s.ModelInputs) > 2 {
			t.Errorf("%s models %d inputs, cap is 2", s.Name, len(s.ModelInputs))
		}
		if s.Build == nil {
			t.Errorf("%s has no builder", s.Name)
		}
	}
}

// TestGetMatchesScan: Get answers from its index what a first-match scan
// of Catalog, then Variants, answers, for every catalog and variant name,
// down to the builder; and every Get of a name returns the one spec.
func TestGetMatchesScan(t *testing.T) {
	all := append(Catalog(), Variants()...)
	if len(all) != 3*len(Catalog()) {
		t.Fatalf("%d specs, want each of %d catalog cells and its X2 and X4", len(all), len(Catalog()))
	}
	for _, want := range all {
		got, err := Get(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		gotB, wantB := got.Build, want.Build
		got.Build, want.Build = nil, nil
		if !reflect.DeepEqual(got, want) || reflect.ValueOf(gotB).Pointer() != reflect.ValueOf(wantB).Pointer() {
			t.Errorf("Get(%q) = %+v, the scan finds %+v", want.Name, got, want)
		}
		again, _ := Get(want.Name)
		if len(got.Inputs) > 0 && &again.Inputs[0] != &got.Inputs[0] {
			t.Errorf("Get(%q) rebuilt its spec", want.Name)
		}
	}
}

// TestFullyModeled pins the set of cells the technology mapper
// (internal/netlist) may target: exactly those whose every input pin is a
// model axis. If a future catalog change shrinks this set, mapped
// benchmark circuits would start failing at analysis time with held-pin
// errors — fail here instead.
func TestFullyModeled(t *testing.T) {
	want := map[string]bool{"INV": true, "NAND2": true, "NOR2": true}
	for _, s := range Catalog() {
		if got := s.FullyModeled(); got != want[s.Name] {
			t.Errorf("%s FullyModeled = %v, want %v", s.Name, got, want[s.Name])
		}
	}
	// Sized variants keep the base cell's modeling.
	for _, name := range []string{"NAND2_X2", "NOR3_X4"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.FullyModeled() != want[strings.SplitN(name, "_", 2)[0]] {
			t.Errorf("%s FullyModeled = %v, want same as base", name, s.FullyModeled())
		}
	}
}

func TestNonControllingLevel(t *testing.T) {
	norSpec, _ := Get("NOR2")
	nandSpec, _ := Get("NAND2")
	if norSpec.NonControllingLevelFor("A", 1.2) != 0 {
		t.Error("NOR non-controlling should be 0")
	}
	if nandSpec.NonControllingLevelFor("A", 1.2) != 1.2 {
		t.Error("NAND non-controlling should be Vdd")
	}
}

func TestFanoutCap(t *testing.T) {
	tech := Default130()
	c1 := FanoutCap(tech, 1)
	if c1 < 0.5e-15 || c1 > 5e-15 {
		t.Errorf("FO1 cap = %g F, outside plausible range", c1)
	}
	if got := FanoutCap(tech, 4); math.Abs(got-4*c1) > 1e-21 {
		t.Errorf("FO4 cap = %g, want %g", got, 4*c1)
	}
}

func TestAttachFanoutInverters(t *testing.T) {
	tech := Default130()
	c := spice.NewCircuit()
	vdd := c.Node("vdd")
	out := c.Node("out")
	before := c.NumNodes()
	AttachFanoutInverters(c, tech, "L", out, vdd, 3)
	// Three new output nodes.
	if got := c.NumNodes() - before; got != 3 {
		t.Errorf("fanout added %d nodes, want 3", got)
	}
	// Six new transistors.
	if got := len(c.Elements()); got != 6 {
		t.Errorf("fanout added %d elements, want 6", got)
	}
}

func TestMinInverterInputCap(t *testing.T) {
	tech := Default130()
	got := tech.MinInverterInputCap()
	// Gate cap of 0.6µm total width ≈ 0.9fF oxide + 0.36fF overlap.
	if got < 0.5e-15 || got > 3e-15 {
		t.Errorf("min inverter input cap = %g F", got)
	}
}

func TestDriveVariants(t *testing.T) {
	// X2/X4 variants exist for every base cell and drive faster.
	if got := len(Variants()); got != 2*len(Catalog()) {
		t.Fatalf("variants = %d, want %d", got, 2*len(Catalog()))
	}
	if _, err := Get("NOR2_X2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("INV_X4"); err != nil {
		t.Fatal(err)
	}

	tech := Default130()
	delayOf := func(name string) float64 {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := spice.NewCircuit()
		vddN := c.Node("vdd")
		in := c.Node("in")
		out := c.Node("out")
		c.AddVSource("VDD", vddN, spice.Ground, spice.DC(tech.Vdd))
		c.AddVSource("VIN", in, spice.Ground, wave.SaturatedRamp(0, tech.Vdd, 0.5e-9, 80e-12, 3e-9))
		spec.Build(c, tech, "X", []spice.Node{in}, out, vddN, spec.Drive)
		c.AddCapacitor("CL", out, spice.Ground, 10e-15)
		res, err := spice.NewEngine(c, spice.DefaultOptions()).Run(0, 3e-9, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		d, err := wave.Delay50(res.Wave(in), res.Wave(out), tech.Vdd, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := delayOf("INV")
	d2 := delayOf("INV_X2")
	d4 := delayOf("INV_X4")
	if !(d4 < d2 && d2 < d1) {
		t.Errorf("drive scaling broken: X1=%.1fps X2=%.1fps X4=%.1fps", d1*1e12, d2*1e12, d4*1e12)
	}
	t.Logf("INV delays at 10fF: X1=%.1fps X2=%.1fps X4=%.1fps", d1*1e12, d2*1e12, d4*1e12)
}
