package csm

import (
	"fmt"

	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// Load attaches an output load network to a stage circuit. The CSM's
// load-independence (§3.4) means any implementation works unchanged.
type Load interface {
	Attach(c *spice.Circuit, out spice.Node)
}

// CapLoad is a lumped grounded capacitance (farads) — the paper's CL.
type CapLoad float64

// Attach implements Load.
func (l CapLoad) Attach(c *spice.Circuit, out spice.Node) {
	c.AddCapacitor("CL", out, spice.Ground, float64(l))
}

// RCLoad is a series resistance into a grounded capacitance: the simplest
// interconnect approximation.
type RCLoad struct {
	R float64
	C float64
}

// Attach implements Load.
func (l RCLoad) Attach(c *spice.Circuit, out spice.Node) {
	far := c.Node("load_far")
	c.AddResistor("RL", out, far, l.R)
	c.AddCapacitor("CLfar", far, spice.Ground, l.C)
}

// PiLoad is the standard RC π-model: near capacitance, series resistance,
// far capacitance.
type PiLoad struct {
	C1 float64
	R  float64
	C2 float64
}

// Attach implements Load.
func (l PiLoad) Attach(c *spice.Circuit, out spice.Node) {
	far := c.Node("load_far")
	c.AddCapacitor("CLnear", out, spice.Ground, l.C1)
	c.AddResistor("RL", out, far, l.R)
	c.AddCapacitor("CLfar", far, spice.Ground, l.C2)
}

// ReceiverLoad loads the net with Count copies of a fanout cell's input pin
// capacitance (its CIn table) — the CSM-flow equivalent of attaching real
// fanout gates.
type ReceiverLoad struct {
	Model      *Model
	InputIndex int
	Count      int
}

// Attach implements Load.
func (l ReceiverLoad) Attach(c *spice.Circuit, out spice.Node) {
	rc, err := NewReceiverCap("CRecv", l.Model, l.InputIndex, out, float64(l.Count))
	if err == nil {
		c.Add(rc)
	}
}

// MultiLoad attaches several loads to the same net.
type MultiLoad []Load

// Attach implements Load.
func (ml MultiLoad) Attach(c *spice.Circuit, out spice.Node) {
	for _, l := range ml {
		l.Attach(c, out)
	}
}

// StageResult is the outcome of a CSM stage simulation.
type StageResult struct {
	Out wave.Waveform // output voltage
	VN  wave.Waveform // internal node voltage (KindMCSM; empty otherwise)
	// Res is the solver record: every unknown for an adaptive run, the
	// output and VN only for a fixed-step one.
	Res *spice.Result
}

// SimulateStageAdaptive is SimulateStage with ΔV-controlled adaptive time
// stepping — the CSM cell is an ordinary circuit element, so the engine's
// adaptive integrator applies unchanged. For digital waveforms this cuts
// the step count by an order of magnitude at matched accuracy (EXP-T1).
// Its initial state is SimulateStage's.
func SimulateStageAdaptive(m *Model, inputs []wave.Waveform, load Load, start, stop float64, opt spice.AdaptiveOptions) (*StageResult, error) {
	c, cell, out, err := buildStage(m, inputs, load)
	if err != nil {
		return nil, err
	}
	eng := spice.NewEngine(c, spice.DefaultOptions())
	x0, err := stageX0(eng, m, inputs, load, start)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunAdaptiveFrom(x0, start, stop, opt)
	if err != nil {
		return nil, err
	}
	sr := &StageResult{Out: res.Wave(out), Res: res}
	if m.Kind == KindMCSM {
		sr.VN = res.AuxWave(cell.VNIndex())
	}
	return sr, nil
}

// buildStage wires the shared stage circuit: ideal sources on the inputs,
// the CSM cell, and the load. Each source reads its waveform through a
// wave.Cursor, which returns Waveform.At's values without a binary search
// per solve.
func buildStage(m *Model, inputs []wave.Waveform, load Load) (*spice.Circuit, *Cell, spice.Node, error) {
	if len(inputs) != len(m.Inputs) {
		return nil, nil, 0, fmt.Errorf("csm: %d input waveforms for %d-input model", len(inputs), len(m.Inputs))
	}
	c := spice.NewCircuit()
	inNodes := make([]spice.Node, len(inputs))
	for i := range inputs {
		inNodes[i] = c.Node("in_" + m.Inputs[i])
		c.AddVSource("V"+m.Inputs[i], inNodes[i], spice.Ground, &wave.Cursor{W: inputs[i]})
	}
	out := c.Node("out")
	cell, err := NewCell("CSM", m, inNodes, out, false)
	if err != nil {
		return nil, nil, 0, err
	}
	c.Add(cell)
	if load != nil {
		load.Attach(c, out)
	}
	return c, cell, out, nil
}

// SimulateStage computes the output waveform of a characterized cell driven
// by ideal input waveforms into the given load, using the implicit solver
// (the CSM cell as a circuit element). The initial condition comes from a
// DC solve at `start`, so input waveforms should begin in a settled state;
// with a capacitive load it is read from the model's memo of earlier
// solves (dcmemo.go), bit for bit the same operating point. The run
// records the output and, for KindMCSM, the internal node.
func SimulateStage(m *Model, inputs []wave.Waveform, load Load, start, stop, dt float64) (*StageResult, error) {
	return simulateStage(m, inputs, load, start, stop, dt, m.Kind == KindMCSM)
}

// SimulateStageOut is SimulateStage for callers that need only the output
// waveform, such as static timing: the run records the output node alone.
func SimulateStageOut(m *Model, inputs []wave.Waveform, load Load, start, stop, dt float64) (wave.Waveform, error) {
	sr, err := simulateStage(m, inputs, load, start, stop, dt, false)
	if err != nil {
		return wave.Waveform{}, err
	}
	return sr.Out, nil
}

// simulateStage runs the fixed-step stage simulation, recording the
// output and, when withVN is set, the internal node.
func simulateStage(m *Model, inputs []wave.Waveform, load Load, start, stop, dt float64, withVN bool) (*StageResult, error) {
	c, cell, out, err := buildStage(m, inputs, load)
	if err != nil {
		return nil, err
	}
	eng := spice.NewEngine(c, spice.DefaultOptions())
	keep := []int{int(out) - 1}
	if withVN {
		keep = append(keep, cell.VNIndex())
	}
	x0, err := stageX0(eng, m, inputs, load, start)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunFrom(x0, start, stop, dt, keep...)
	if err != nil {
		return nil, err
	}
	sr := &StageResult{Out: res.Wave(out), Res: res}
	if withVN {
		sr.VN = res.AuxWave(cell.VNIndex())
	}
	return sr, nil
}
