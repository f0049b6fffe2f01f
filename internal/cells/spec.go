package cells

import (
	"fmt"
	"sync"
)

// Spec is the characterization-facing description of a library cell: its
// pin list, which (at most two) inputs the CSM treats as varying, the
// modeled internal node, and the level at which held inputs are parked.
type Spec struct {
	// Name identifies the cell in the catalog ("INV", "NOR2", …).
	Name string
	// Inputs lists all input pins in builder order.
	Inputs []string
	// ModelInputs lists the inputs the CSM varies (≤ 2, per the paper's
	// complexity cap). Other inputs are held at the non-controlling level.
	ModelInputs []string
	// Internal names the modeled stack node ("" when the cell has none,
	// e.g. the inverter).
	Internal string
	// NonControllingHigh is true when a held input must sit at Vdd to be
	// non-controlling (NAND family) and false for ground (NOR family).
	NonControllingHigh bool
	// NonControllingPin overrides NonControllingHigh for individual pins of
	// heterogeneous cells (e.g. AOI21: pins A/B park high, pin C parks low).
	NonControllingPin map[string]bool
	// InvertedOutput is true for all cells in this catalog (static CMOS).
	InvertedOutput bool
	// Drive is the default drive-strength multiplier.
	Drive float64
	// Build instantiates the transistors.
	Build Builder
}

// FullyModeled reports whether every input pin of the cell is a CSM model
// axis. Only fully modeled cells can sit in a mapped benchmark circuit,
// where each pin carries a live (switching) signal: cells with held pins
// (NAND3, NOR3, AOI21, … under the ≤2-input complexity cap) require those
// pins to stay parked at the non-controlling level during analysis. The
// technology mapper (internal/netlist) restricts its targets accordingly.
func (s Spec) FullyModeled() bool {
	return len(s.ModelInputs) == len(s.Inputs)
}

// NonControllingLevelFor returns the park level of a specific pin,
// honoring per-pin overrides of heterogeneous cells.
func (s Spec) NonControllingLevelFor(pin string, vdd float64) float64 {
	high := s.NonControllingHigh
	if v, ok := s.NonControllingPin[pin]; ok {
		high = v
	}
	if high {
		return vdd
	}
	return 0
}

// Catalog returns the library cells with default sizing.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "INV", Inputs: []string{"A"}, ModelInputs: []string{"A"},
			Internal: "", NonControllingHigh: false, InvertedOutput: true,
			Drive: 1, Build: Inverter,
		},
		{
			Name: "NOR2", Inputs: []string{"A", "B"}, ModelInputs: []string{"A", "B"},
			Internal: "N", NonControllingHigh: false, InvertedOutput: true,
			Drive: 1, Build: NOR2,
		},
		{
			Name: "NAND2", Inputs: []string{"A", "B"}, ModelInputs: []string{"A", "B"},
			Internal: "N", NonControllingHigh: true, InvertedOutput: true,
			Drive: 1, Build: NAND2,
		},
		{
			Name: "NOR3", Inputs: []string{"A", "B", "C"}, ModelInputs: []string{"A", "B"},
			Internal: "N", NonControllingHigh: false, InvertedOutput: true,
			Drive: 1, Build: NOR3,
		},
		{
			Name: "NAND3", Inputs: []string{"A", "B", "C"}, ModelInputs: []string{"A", "B"},
			Internal: "N", NonControllingHigh: true, InvertedOutput: true,
			Drive: 1, Build: NAND3,
		},
		{
			Name: "AOI21", Inputs: []string{"A", "B", "C"}, ModelInputs: []string{"A", "B"},
			Internal: "N", NonControllingHigh: true, InvertedOutput: true,
			// Pin C feeds the OR term: it is non-controlling at ground.
			NonControllingPin: map[string]bool{"C": false},
			Drive:             1, Build: AOI21,
		},
		{
			Name: "OAI21", Inputs: []string{"A", "B", "C"}, ModelInputs: []string{"A", "B"},
			Internal: "N", NonControllingHigh: false, InvertedOutput: true,
			// Pin C feeds the AND term: it is non-controlling at Vdd.
			NonControllingPin: map[string]bool{"C": true},
			Drive:             1, Build: OAI21,
		},
	}
}

// Variants returns sized versions (X2, X4) of the base catalog: identical
// topology with all widths scaled, characterizable and placeable exactly
// like the X1 cells.
func Variants() []Spec {
	var out []Spec
	for _, base := range Catalog() {
		for _, mult := range []float64{2, 4} {
			v := base
			v.Name = fmt.Sprintf("%s_X%d", base.Name, int(mult))
			v.Drive = mult
			out = append(out, v)
		}
	}
	return out
}

// specs indexes every catalog and variant spec by name, built once.
var specs = sync.OnceValue(func() map[string]Spec {
	all := append(Catalog(), Variants()...)
	idx := make(map[string]Spec, len(all))
	for _, s := range all {
		idx[s.Name] = s
	}
	return idx
})

// Get returns the catalog or variant spec with the given name. Every Get
// of a name returns the same spec, sharing its slices and its pin map:
// treat them as read-only (Catalog and Variants return copies to edit).
func Get(name string) (Spec, error) {
	if s, ok := specs()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("cells: unknown cell %q", name)
}
