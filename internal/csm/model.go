// Package csm implements the paper's contribution: current source models
// (CSMs) of CMOS logic cells, including the proposed MCSM — a multiple-
// input-switching model that captures the internal (stack) node voltage.
//
// Three model kinds are provided, matching the paper's comparison set:
//
//   - KindSIS — the single-input-switching CSM of reference [5] (§2.1):
//     Io(Vi,Vo) with nonlinear Ci, Co, and Miller CM.
//   - KindMISBaseline — the §3.1 extension to two switching inputs that
//     *ignores* internal node voltages: Io(VA,VB,Vo) plus CmA, CmB, Co.
//   - KindMCSM — the complete §3.2–3.3 model: Io(VA,VB,VN,Vo) and
//     IN(VA,VB,VN,Vo) current sources with CmA, CmB, Co, CN capacitances,
//     where node N is both an input and an output of the model (Fig. 8).
//
// Models are characterized from the transistor-level cells of
// internal/cells using the internal/spice simulator (the repo's HSPICE
// stand-in), stored as dense lookup tables (internal/table), and evaluated
// either as a spice.Element inside arbitrary networks (element.go) or with
// the paper's explicit update equations Eq. 4–5 (explicit.go).
package csm

import (
	"fmt"

	"mcsm/internal/table"
)

// Kind selects the model structure.
type Kind int

// Model kinds, in increasing fidelity.
const (
	// KindSIS is the single-input-switching CSM of §2.1 / reference [5].
	KindSIS Kind = iota
	// KindMISBaseline is the §3.1 MIS model without internal node state.
	KindMISBaseline
	// KindMCSM is the paper's complete model with the internal node.
	KindMCSM
)

// String names the kind as used in reports.
func (k Kind) String() string {
	switch k {
	case KindSIS:
		return "SIS-CSM"
	case KindMISBaseline:
		return "MIS-baseline"
	case KindMCSM:
		return "MCSM"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Model is a characterized current source model of one library cell.
//
// Table axes are ordered: modeled inputs (in Inputs order), then the
// internal node (KindMCSM only), then the output. Axis spans cover
// [−ΔV, Vdd+ΔV] per the paper's characterization margins.
//
// Sign conventions (fixed by the characterization and used consistently by
// both integrators):
//
//   - Io > 0 means the cell injects current *into* the output node
//     (charging the load); this is the negative of the paper's io arrow in
//     Fig. 1, which points into the cell.
//   - IN > 0 means the cell injects current into the internal node.
type Model struct {
	Kind     Kind
	Cell     string             // library cell name ("NOR2", …)
	Vdd      float64            // supply voltage the model was characterized at
	Inputs   []string           // modeled input pins, axis order
	Held     map[string]float64 // non-modeled input pins parked at these levels
	Internal string             // modeled internal node name (KindMCSM)
	DeltaV   float64            // characterization over/under-drive margin

	Io *table.Table // output current source
	IN *table.Table // internal-node current source (KindMCSM)

	Cm []*table.Table // Miller capacitances input↔output, one per modeled input
	Co *table.Table   // output capacitance (input couplings excluded)
	CN *table.Table   // internal node capacitance (KindMCSM)
	// CIn is the 1-D input capacitance per modeled input *excluding* the
	// couplings carried as explicit model branches (Cm, CmN): the loading a
	// fully instantiated Cell adds on top of its branch network.
	CIn []*table.Table
	// CPin is the paper's Eq. 3 receiver capacitance: the *total* 1-D pin
	// capacitance (including static Miller) that a fanout pin presents when
	// the receiving cell is not itself simulated — what ReceiverLoad uses.
	CPin []*table.Table

	// Internal-node Miller extension (beyond the paper's §3.2
	// simplification; nil when characterized with Config.NoInternalMiller):
	CmN  []*table.Table // coupling input↔internal node, one per modeled input
	CmNO *table.Table   // coupling output↔internal node

	dc *dcMemo // stage DC operating points (dcmemo.go), guarded by stageDC.mu
}

// HasInternalMiller reports whether the model carries the internal-node
// Miller extension tables.
func (m *Model) HasInternalMiller() bool {
	return m.Kind == KindMCSM && len(m.CmN) > 0 && m.CmNO != nil
}

// rank returns the dimensionality of the model's current/cap tables.
func (m *Model) rank() int {
	r := len(m.Inputs) + 1
	if m.Kind == KindMCSM {
		r++
	}
	return r
}

// Coords assembles a table coordinate vector from input voltages, the
// internal node voltage (ignored unless KindMCSM), and the output voltage.
// The dst slice is reused when it has sufficient capacity.
func (m *Model) Coords(dst []float64, vin []float64, vn, vo float64) []float64 {
	dst = dst[:0]
	dst = append(dst, vin...)
	if m.Kind == KindMCSM {
		dst = append(dst, vn)
	}
	return append(dst, vo)
}

// Validate checks structural consistency: table presence and ranks.
func (m *Model) Validate() error {
	if len(m.Inputs) == 0 || len(m.Inputs) > 2 {
		return fmt.Errorf("csm: model has %d inputs, want 1 or 2", len(m.Inputs))
	}
	if m.Kind == KindSIS && len(m.Inputs) != 1 {
		return fmt.Errorf("csm: SIS model must have exactly 1 input")
	}
	want := m.rank()
	if m.Io == nil || m.Io.Rank() != want {
		return fmt.Errorf("csm: Io table missing or rank != %d", want)
	}
	if m.Co == nil || m.Co.Rank() != want {
		return fmt.Errorf("csm: Co table missing or rank != %d", want)
	}
	if len(m.Cm) != len(m.Inputs) {
		return fmt.Errorf("csm: %d Miller tables for %d inputs", len(m.Cm), len(m.Inputs))
	}
	for i, cm := range m.Cm {
		if cm == nil || cm.Rank() != want {
			return fmt.Errorf("csm: Cm[%d] missing or rank != %d", i, want)
		}
	}
	if len(m.CIn) != len(m.Inputs) {
		return fmt.Errorf("csm: %d receiver-cap tables for %d inputs", len(m.CIn), len(m.Inputs))
	}
	for i, ci := range m.CIn {
		if ci == nil || ci.Rank() != 1 {
			return fmt.Errorf("csm: CIn[%d] missing or not rank 1", i)
		}
	}
	if len(m.CPin) != len(m.Inputs) {
		return fmt.Errorf("csm: %d pin-cap tables for %d inputs", len(m.CPin), len(m.Inputs))
	}
	for i, cp := range m.CPin {
		if cp == nil || cp.Rank() != 1 {
			return fmt.Errorf("csm: CPin[%d] missing or not rank 1", i)
		}
	}
	if m.Kind == KindMCSM {
		if m.IN == nil || m.IN.Rank() != want {
			return fmt.Errorf("csm: IN table missing or rank != %d", want)
		}
		if m.CN == nil || m.CN.Rank() != want {
			return fmt.Errorf("csm: CN table missing or rank != %d", want)
		}
		if m.Internal == "" {
			return fmt.Errorf("csm: MCSM model has no internal node name")
		}
		if len(m.CmN) > 0 || m.CmNO != nil {
			if len(m.CmN) != len(m.Inputs) || m.CmNO == nil {
				return fmt.Errorf("csm: incomplete internal-Miller tables")
			}
			for i, cn := range m.CmN {
				if cn == nil || cn.Rank() != want {
					return fmt.Errorf("csm: CmN[%d] missing or rank != %d", i, want)
				}
			}
			if m.CmNO.Rank() != want {
				return fmt.Errorf("csm: CmNO rank != %d", want)
			}
		}
	} else if m.IN != nil || m.CN != nil || len(m.CmN) > 0 || m.CmNO != nil {
		return fmt.Errorf("csm: non-MCSM model carries internal-node tables")
	}
	return nil
}

// MeanInternalCap returns the average CN over the table, used by the §3.4
// selective-modeling policy to compare internal charge storage against the
// external load.
func (m *Model) MeanInternalCap() float64 {
	if m.CN == nil {
		return 0
	}
	var sum float64
	for _, v := range m.CN.Data {
		sum += v
	}
	return sum / float64(len(m.CN.Data))
}
