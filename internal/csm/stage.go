package csm

import (
	"fmt"
	"sync"

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
}

// A stageBench is the circuit and engine of a stage solve: ideal sources
// on the inputs, the CSM cell, and the load, which is the part of the
// circuit after mark. A model keeps its benches in a sync.Pool between
// solves, so a solve reuses the engine's systems, LU workspace and Newton
// vectors and the cell's table cursors instead of building them, and
// concurrent solves of one model each hold their own bench. Every solve
// rebinds the inputs and the load and starts as a new bench would: the
// run resets every history, the DC point or the memo sets every unknown,
// and each lookup re-seeks its cursors, whose bracket hints are exact
// whatever point they were left at (table.Seek, wave.Cursor).
type stageBench struct {
	ckt  *spice.Circuit
	src  []*wave.Cursor // the input sources' stimuli
	cell *Cell
	out  spice.Node
	mark spice.Mark // the circuit without its load
	eng  *spice.Engine
	pool *benchPool // where release returns the bench
}

// benchPool is a model's pool of stage benches. owner tells a by-value
// copy of the model, which shares the pointer, that the pool is not its.
type benchPool struct {
	owner *Model
	sync.Pool
}

// benchMu guards every Model.benches.
var benchMu sync.Mutex

// bench returns one of m's stage benches, bound to inputs and load.
// Release it when the solve is done.
func (m *Model) bench(inputs []wave.Waveform, load Load) (*stageBench, error) {
	if len(inputs) != len(m.Inputs) {
		return nil, fmt.Errorf("csm: %d input waveforms for %d-input model", len(inputs), len(m.Inputs))
	}
	benchMu.Lock()
	if m.benches == nil || m.benches.owner != m {
		m.benches = &benchPool{owner: m}
	}
	pool := m.benches
	benchMu.Unlock()
	b, _ := pool.Get().(*stageBench)
	if b == nil {
		var err error
		if b, err = newStageBench(m); err != nil {
			return nil, err
		}
	}
	b.pool = pool
	b.bind(inputs, load)
	return b, nil
}

// bind points the bench's sources at inputs and attaches load.
func (b *stageBench) bind(inputs []wave.Waveform, load Load) {
	for i, w := range inputs {
		*b.src[i] = wave.Cursor{W: w}
	}
	if load != nil {
		load.Attach(b.ckt, b.out)
	}
	b.eng.Rebind()
}

// release drops the solve's inputs and load, so a pooled bench holds no
// waveform, and returns the bench to its pool.
func (b *stageBench) release() {
	for _, src := range b.src {
		*src = wave.Cursor{}
	}
	b.ckt.Truncate(b.mark)
	b.pool.Put(b)
}

// newStageBench wires a stage circuit for m without a load.
func newStageBench(m *Model) (*stageBench, error) {
	c := spice.NewCircuit()
	b := &stageBench{ckt: c, src: make([]*wave.Cursor, len(m.Inputs))}
	inNodes := make([]spice.Node, len(m.Inputs))
	for i, pin := range m.Inputs {
		inNodes[i] = c.Node("in_" + pin)
		b.src[i] = &wave.Cursor{}
		c.AddVSource("V"+pin, inNodes[i], spice.Ground, b.src[i])
	}
	b.out = c.Node("out")
	cell, err := NewCell("CSM", m, inNodes, b.out, false)
	if err != nil {
		return nil, err
	}
	c.Add(cell)
	b.cell = cell
	b.mark = c.Mark()
	b.eng = spice.NewEngine(c, spice.DefaultOptions())
	return b, nil
}

// SimulateStage computes the output waveform of a characterized cell driven
// by ideal input waveforms into the given load, using the implicit solver
// (the CSM cell as a circuit element). The initial condition comes from a
// DC solve at `start`, so input waveforms should begin in a settled state;
// with a capacitive load it is read from the model's memo of earlier
// solves (dcmemo.go), bit for bit the same operating point. The run
// records the output and, for KindMCSM, the internal node, on a time grid
// of its own.
func SimulateStage(m *Model, inputs []wave.Waveform, load Load, start, stop, dt float64) (*StageResult, error) {
	g, err := spice.NewGrid(start, stop, dt)
	if err != nil {
		return nil, err
	}
	return simulateStage(m, inputs, load, g, m.Kind == KindMCSM, nil)
}

// SimulateStageOut is SimulateStage for callers that need only the output
// waveform, such as static timing: the run records the output node alone,
// under the caller's step control. On a fixed-step grid the output's T
// shares the grid's times; a ΔV-adaptive grid (spice.NewAdaptive) takes
// far fewer steps on digital waveforms at matched accuracy (EXP-T1), the
// CSM cell being an ordinary circuit element to the engine. With a non-nil
// out it publishes the output into out as it records it (every
// spice.PublishEvery steps); the caller closes out. Inputs may be live
// views of other stages' streams: the solve reads each input only at its
// own step times (through the sources' cursors) and at the start time
// (the DC memo key), and both wait for the samples they need.
func SimulateStageOut(m *Model, inputs []wave.Waveform, load Load, g *spice.Grid, out *wave.Stream) (wave.Waveform, error) {
	sr, err := simulateStage(m, inputs, load, g, false, out)
	if err != nil {
		return wave.Waveform{}, err
	}
	return sr.Out, nil
}

// simulateStage runs the stage simulation under g's step control,
// recording the output and, when withVN is set, the internal node, and
// publishing the output into a non-nil stream.
func simulateStage(m *Model, inputs []wave.Waveform, load Load, g *spice.Grid, withVN bool, stream *wave.Stream) (*StageResult, error) {
	b, err := m.bench(inputs, load)
	if err != nil {
		return nil, err
	}
	defer b.release()
	keep := []int{int(b.out) - 1}
	if withVN {
		keep = append(keep, b.cell.VNIndex())
	}
	x0, err := stageX0(b.eng, m, inputs, load, g.Start())
	if err != nil {
		return nil, err
	}
	var publish func(*spice.Result)
	if stream != nil {
		out := b.out
		publish = func(r *spice.Result) { stream.Publish(r.Wave(out)) }
	}
	res, err := b.eng.RunFrom(x0, g, publish, keep...)
	if err != nil {
		return nil, err
	}
	sr := &StageResult{Out: res.Wave(b.out)}
	if withVN {
		sr.VN = res.AuxWave(b.cell.VNIndex())
	}
	return sr, nil
}
