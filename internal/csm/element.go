package csm

import (
	"fmt"

	"mcsm/internal/spice"
	"mcsm/internal/table"
)

// Cell is a characterized CSM instantiated as a spice.Element: the model's
// current sources stamp table-interpolated values (with gradients feeding
// the Newton Jacobian) and its capacitances integrate through the engine's
// companion models. For KindMCSM the internal node voltage VN is an
// auxiliary MNA unknown owned by the element, solved simultaneously with
// the circuit — the implicit counterpart of the paper's Eq. 5.
//
// Because the element works inside any network, CSM stage computation with
// arbitrary RC/coupled/receiver loads and mixed transistor+CSM simulation
// (the noise flow) need no special casing — the load-independence property
// of §3.4.
type Cell struct {
	name   string
	model  *Model
	inputs []spice.Node
	out    spice.Node

	withReceiverCaps bool

	vnAux int // absolute unknown index of VN (KindMCSM)

	// Table lookups, each group located once per evaluation point: the
	// current sources (Io, then IN for KindMCSM) with their gradients at
	// every Newton assembly, the capacitances at every step start.
	currents tableGroup
	caps     tableGroup
	io, iN   float64
	gradIo   []float64
	gradIN   []float64

	// Per-step frozen capacitance values and branch histories.
	cmVal   []float64
	cinVal  []float64
	cmNVal  []float64
	cmNOVal float64
	coVal   float64
	cnVal   float64
	cm      []spice.CapBranch
	cin     []spice.CapBranch
	co      spice.CapBranch
	cmN     []auxCap
	cmNO    auxCap
	cnIPrev float64 // trapezoidal history of the internal-node capacitor

	coordBuf []float64 // coordinate scratch, capacity rank
	vnInit   float64
}

// tableGroup evaluates a fixed list of same-rank tables at one coordinate
// vector into fixed destinations, locating the vector once per distinct
// grid: the tables whose axes are bit-identical (table.SameGrid) share a
// cursor and one table.Eval, and a table on a grid of its own gets its
// own. Sharing is exact — Eval's outputs equal one-table lookups bit for
// bit — so grouping never changes a value.
type tableGroup struct {
	grids []tableGrid
}

// tableGrid is one cursor of a tableGroup and the tables read through it.
type tableGrid struct {
	cursor table.Cursor
	tables []*table.Table
	vals   []float64   // Eval's values, one per table
	dst    []*float64  // dst[j] receives tables[j]'s value
	grads  [][]float64 // tables[j]'s gradient buffer; nil when only values are read
}

// newTableGroup groups tables by grid: table k's value goes to dst[k] and,
// when grads is not nil, its gradient to grads[k].
func newTableGroup(tables []*table.Table, dst []*float64, grads [][]float64) tableGroup {
	var g tableGroup
	for k, t := range tables {
		i := 0
		for i < len(g.grids) && !table.SameGrid(g.grids[i].tables[0], t) {
			i++
		}
		if i == len(g.grids) {
			g.grids = append(g.grids, tableGrid{})
		}
		gr := &g.grids[i]
		gr.tables = append(gr.tables, t)
		gr.vals = append(gr.vals, 0)
		gr.dst = append(gr.dst, dst[k])
		if grads != nil {
			gr.grads = append(gr.grads, grads[k])
		}
	}
	return g
}

// eval evaluates every table of the group at coords.
func (g *tableGroup) eval(coords []float64) {
	for i := range g.grids {
		gr := &g.grids[i]
		gr.tables[0].Seek(&gr.cursor, coords)
		table.Eval(&gr.cursor, gr.tables, gr.vals, gr.grads)
		for j, d := range gr.dst {
			*d = gr.vals[j]
		}
	}
}

// auxCap integrates a capacitive branch between a circuit node and the
// element's auxiliary internal-node unknown (used by the internal-Miller
// extension; spice.CapBranch only addresses circuit nodes).
type auxCap struct {
	iPrev float64
}

// stamp adds the companion model of a capacitance c between node a and the
// auxiliary unknown aux.
func (ac *auxCap) stamp(sys *spice.System, ctx *spice.Context, a spice.Node, aux int, c float64) {
	if ctx.Mode == spice.ModeDC || ctx.Dt <= 0 || c == 0 {
		return
	}
	ra := int(a) - 1
	vPrev := ctx.Vprev(a) - ctx.AuxPrev(aux)
	var geq, hist float64
	if ctx.Method == spice.Trapezoidal {
		geq = 2 * c / ctx.Dt
		hist = geq*vPrev + ac.iPrev
	} else {
		geq = c / ctx.Dt
		hist = geq * vPrev
	}
	// Branch current leaving a toward the aux node: i = geq·(va−vaux) − hist.
	sys.AddA(ra, ra, geq)
	sys.AddA(ra, aux, -geq)
	sys.AddB(ra, hist)
	sys.AddA(aux, aux, geq)
	sys.AddA(aux, ra, -geq)
	sys.AddB(aux, -hist)
}

// accept records the converged branch current.
func (ac *auxCap) accept(ctx *spice.Context, a spice.Node, aux int, c float64) {
	if ctx.Mode == spice.ModeDC || ctx.Dt <= 0 || c == 0 {
		ac.iPrev = 0
		return
	}
	v := ctx.V(a) - ctx.Aux(aux)
	vPrev := ctx.Vprev(a) - ctx.AuxPrev(aux)
	if ctx.Method == spice.Trapezoidal {
		ac.iPrev = 2*c/ctx.Dt*(v-vPrev) - ac.iPrev
	} else {
		ac.iPrev = c / ctx.Dt * (v - vPrev)
	}
}

// NewCell wires a model between the given input nodes (model input order)
// and output node. When receiverCaps is true the model's CIn tables load
// the input nets — enable this whenever the cell is driven through a real
// network rather than ideal sources.
func NewCell(name string, m *Model, inputs []spice.Node, out spice.Node, receiverCaps bool) (*Cell, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) != len(m.Inputs) {
		return nil, fmt.Errorf("csm: %d input nodes for %d-input model", len(inputs), len(m.Inputs))
	}
	rank := m.rank()
	c := &Cell{
		name:             name,
		model:            m,
		inputs:           append([]spice.Node(nil), inputs...),
		out:              out,
		withReceiverCaps: receiverCaps,
		gradIo:           make([]float64, rank),
		cmVal:            make([]float64, len(inputs)),
		cinVal:           make([]float64, len(inputs)),
		cmNVal:           make([]float64, len(inputs)),
		cm:               make([]spice.CapBranch, len(inputs)),
		cin:              make([]spice.CapBranch, len(inputs)),
		cmN:              make([]auxCap, len(inputs)),
		coordBuf:         make([]float64, 0, rank),
		vnInit:           m.Vdd / 2,
	}
	currents, curDst, curGrad := []*table.Table{m.Io}, []*float64{&c.io}, [][]float64{c.gradIo}
	var caps []*table.Table
	var capDst []*float64
	addCap := func(t *table.Table, dst *float64) {
		caps = append(caps, t)
		capDst = append(capDst, dst)
	}
	for i, t := range m.Cm {
		addCap(t, &c.cmVal[i])
	}
	addCap(m.Co, &c.coVal)
	if m.Kind == KindMCSM {
		c.gradIN = make([]float64, rank)
		currents, curDst, curGrad = append(currents, m.IN), append(curDst, &c.iN), append(curGrad, c.gradIN)
		addCap(m.CN, &c.cnVal)
	}
	if m.HasInternalMiller() {
		for i, t := range m.CmN {
			addCap(t, &c.cmNVal[i])
		}
		addCap(m.CmNO, &c.cmNOVal)
	}
	c.currents = newTableGroup(currents, curDst, curGrad)
	c.caps = newTableGroup(caps, capDst, nil)
	return c, nil
}

// Name returns the element name.
func (c *Cell) Name() string { return c.name }

// Model returns the underlying characterized model.
func (c *Cell) Model() *Model { return c.model }

// AuxCount reports one auxiliary unknown (VN) for MCSM models.
func (c *Cell) AuxCount() int {
	if c.model.Kind == KindMCSM {
		return 1
	}
	return 0
}

// SetAuxBase records the assigned auxiliary index range.
func (c *Cell) SetAuxBase(base int) { c.vnAux = base }

// VNIndex returns the absolute unknown index of the internal node voltage.
// Valid only for KindMCSM models after engine construction.
func (c *Cell) VNIndex() int { return c.vnAux }

// InitGuess seeds the internal-node unknown before DC analysis.
func (c *Cell) InitGuess(x []float64) {
	if c.model.Kind == KindMCSM {
		x[c.vnAux] = c.vnInit
	}
}

// coords assembles the model coordinate vector from the unknown vector x
// (the candidate or the last accepted solution) in the cell's scratch.
func (c *Cell) coords(x []float64) []float64 {
	buf := c.coordBuf[:0]
	for _, n := range c.inputs {
		buf = append(buf, nodeV(x, n))
	}
	if c.model.Kind == KindMCSM {
		buf = append(buf, x[c.vnAux])
	}
	return append(buf, nodeV(x, c.out))
}

// nodeV reads node n's voltage from an unknown vector (ground is 0).
func nodeV(x []float64, n spice.Node) float64 {
	if n == spice.Ground {
		return 0
	}
	return x[int(n)-1]
}

// BeginStep freezes the capacitance tables at the start-of-step point.
func (c *Cell) BeginStep(ctx *spice.Context) {
	c.caps.eval(c.coords(ctx.Xprev))
	if c.withReceiverCaps {
		for i, n := range c.inputs {
			c.cinVal[i] = c.model.CIn[i].At(ctx.Vprev(n))
		}
	}
}

// unknownOf maps coordinate index k to the MNA unknown index.
func (c *Cell) unknownOf(k int) int {
	if k < len(c.inputs) {
		return int(c.inputs[k]) - 1 // node index (−1 for ground)
	}
	if c.model.Kind == KindMCSM && k == len(c.inputs) {
		return c.vnAux
	}
	return int(c.out) - 1
}

// Stamp adds the linearized current sources and the capacitive branches.
func (c *Cell) Stamp(sys *spice.System, ctx *spice.Context) {
	coords := c.coords(ctx.X)
	c.currents.eval(coords)
	outIdx := int(c.out) - 1

	// Output current source: the cell injects Io into the output node, so
	// the current *leaving* the node into the element is −Io.
	io := c.io
	lin := 0.0
	for k, g := range c.gradIo {
		sys.AddA(outIdx, c.unknownOf(k), -g)
		lin += -g * coords[k]
	}
	sys.AddB(outIdx, lin-(-io))

	if c.model.Kind == KindMCSM {
		// Internal node equation (implicit Eq. 5): CN·dVN/dt − IN(V) = 0,
		// plus a gmin-scale leak mirroring the engine's node treatment.
		row := c.vnAux
		iN := c.iN
		linN := 0.0
		for k, g := range c.gradIN {
			sys.AddA(row, c.unknownOf(k), -g)
			linN += -g * coords[k]
		}
		sys.AddB(row, linN-(-iN))
		const auxGmin = 1e-12
		sys.AddA(row, row, auxGmin)

		if ctx.Mode == spice.ModeTransient && ctx.Dt > 0 {
			vnPrev := ctx.AuxPrev(c.vnAux)
			var geq, hist float64
			if ctx.Method == spice.Trapezoidal {
				geq = 2 * c.cnVal / ctx.Dt
				hist = geq*vnPrev + c.cnIPrev
			} else {
				geq = c.cnVal / ctx.Dt
				hist = geq * vnPrev
			}
			sys.AddA(row, row, geq)
			sys.AddB(row, hist)
		}
	}

	// Capacitive branches.
	for i := range c.inputs {
		c.cm[i].Stamp(sys, ctx, c.inputs[i], c.out, c.cmVal[i])
	}
	c.co.Stamp(sys, ctx, c.out, spice.Ground, c.coVal)
	if c.model.HasInternalMiller() {
		for i := range c.inputs {
			c.cmN[i].stamp(sys, ctx, c.inputs[i], c.vnAux, c.cmNVal[i])
		}
		c.cmNO.stamp(sys, ctx, c.out, c.vnAux, c.cmNOVal)
	}
	if c.withReceiverCaps {
		for i := range c.inputs {
			c.cin[i].Stamp(sys, ctx, c.inputs[i], spice.Ground, c.cinVal[i])
		}
	}
}

// AcceptStep records converged capacitor branch currents.
func (c *Cell) AcceptStep(ctx *spice.Context) {
	for i := range c.inputs {
		c.cm[i].Accept(ctx, c.inputs[i], c.out, c.cmVal[i])
	}
	c.co.Accept(ctx, c.out, spice.Ground, c.coVal)
	if c.model.HasInternalMiller() {
		for i := range c.inputs {
			c.cmN[i].accept(ctx, c.inputs[i], c.vnAux, c.cmNVal[i])
		}
		c.cmNO.accept(ctx, c.out, c.vnAux, c.cmNOVal)
	}
	if c.withReceiverCaps {
		for i := range c.inputs {
			c.cin[i].Accept(ctx, c.inputs[i], spice.Ground, c.cinVal[i])
		}
	}
	if c.model.Kind == KindMCSM && ctx.Mode == spice.ModeTransient && ctx.Dt > 0 {
		vn := ctx.Aux(c.vnAux)
		vnPrev := ctx.AuxPrev(c.vnAux)
		if ctx.Method == spice.Trapezoidal {
			c.cnIPrev = 2*c.cnVal/ctx.Dt*(vn-vnPrev) - c.cnIPrev
		} else {
			c.cnIPrev = c.cnVal / ctx.Dt * (vn - vnPrev)
		}
	}
}

// ResetState clears capacitor histories when a fresh transient begins.
func (c *Cell) ResetState() {
	for i := range c.cm {
		c.cm[i].Reset()
		c.cin[i].Reset()
		c.cmN[i].iPrev = 0
	}
	c.co.Reset()
	c.cmNO.iPrev = 0
	c.cnIPrev = 0
}

// Interface conformance checks.
var (
	_ spice.Element     = (*Cell)(nil)
	_ spice.AuxUser     = (*Cell)(nil)
	_ spice.Stepper     = (*Cell)(nil)
	_ spice.Initializer = (*Cell)(nil)
)

// ReceiverCap is a standalone nonlinear grounded capacitor driven by a 1-D
// table — the load a fanout cell's input pin presents (Eq. 3). It lets
// experiments attach "k × receiver" loads without instantiating full cells.
type ReceiverCap struct {
	name   string
	node   spice.Node
	model  *Model
	input  int
	scale  float64
	val    float64
	branch spice.CapBranch
	cur    table.Cursor1 // the per-step lookup's bracket
}

// NewReceiverCap creates a receiver-capacitance load of `scale` parallel
// copies of the model's input pin i attached to node n, using the Eq. 3
// total pin capacitance CPin (the receiving cell itself is not simulated,
// so its Miller couplings must be part of the lumped pin load).
func NewReceiverCap(name string, m *Model, inputIndex int, n spice.Node, scale float64) (*ReceiverCap, error) {
	if inputIndex < 0 || inputIndex >= len(m.CPin) || m.CPin[inputIndex] == nil {
		return nil, fmt.Errorf("csm: model %s has no receiver table for input %d", m.Cell, inputIndex)
	}
	return &ReceiverCap{name: name, node: n, model: m, input: inputIndex, scale: scale}, nil
}

// Name returns the element name.
func (r *ReceiverCap) Name() string { return r.name }

// BeginStep freezes the capacitance at the start-of-step input voltage.
func (r *ReceiverCap) BeginStep(ctx *spice.Context) {
	r.val = r.scale * r.model.CPin[r.input].Value1(&r.cur, ctx.Vprev(r.node))
}

// Stamp adds the companion model.
func (r *ReceiverCap) Stamp(sys *spice.System, ctx *spice.Context) {
	r.branch.Stamp(sys, ctx, r.node, spice.Ground, r.val)
}

// AcceptStep records the converged branch current.
func (r *ReceiverCap) AcceptStep(ctx *spice.Context) {
	r.branch.Accept(ctx, r.node, spice.Ground, r.val)
}

// ResetState clears the branch history.
func (r *ReceiverCap) ResetState() { r.branch.Reset() }
