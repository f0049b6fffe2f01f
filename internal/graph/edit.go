package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/sta"
	"mcsm/internal/units"
	"mcsm/internal/wave"
)

// The ECO edit API. Every op validates first and mutates only on success;
// a failed edit leaves the graph exactly as it was. Edits mark the dirty
// frontier but evaluate nothing — call Propagate to re-converge. Within a
// batch, edits apply sequentially and the first failure stops the batch;
// edits already applied remain (the graph stays consistent — re-propagate
// or repair with further edits).

// SwapCell retypes an instance to another catalog cell with the same pin
// count (the classic ECO sizing/retyping move). The new type's model must
// be in the graph's model set or obtainable through Config.ModelFor. The
// instance itself and the drivers of its input nets (whose loads now see
// a different receiver) become dirty.
func (g *TimingGraph) SwapCell(instName, newType string) error {
	idx, ok := g.instIdx[instName]
	if !ok {
		return fmt.Errorf("graph: swap_cell: unknown instance %q", instName)
	}
	inst := &g.nl.Instances[idx]
	if inst.Type == newType {
		return nil
	}
	spec, err := cells.Get(newType)
	if err != nil {
		return fmt.Errorf("graph: swap_cell %s: %w", instName, err)
	}
	if len(spec.Inputs) != len(inst.Inputs) {
		return fmt.Errorf("graph: swap_cell %s: cell %s has %d pins, instance has %d nets",
			instName, newType, len(spec.Inputs), len(inst.Inputs))
	}
	// A table-only backend graph (custom Eval, no CSM models) resolves
	// cell data inside its evaluator at propagation time; demanding a CSM
	// model here would force a characterization the backend never uses.
	needModel := !g.customEval || len(g.models) > 0
	var receivers []string
	if _, ok := g.models[newType]; needModel && !ok {
		if g.modelFor == nil {
			return fmt.Errorf("graph: swap_cell %s: no model for cell type %q", instName, newType)
		}
		m, err := g.modelFor(newType)
		if err != nil {
			return fmt.Errorf("graph: swap_cell %s: characterize %s: %w", instName, newType, err)
		}
		if receivers, err = g.addModels(map[string]*csm.Model{newType: m}); err != nil {
			return fmt.Errorf("graph: swap_cell %s: %w", instName, err)
		}
	}

	inst.Type = newType
	g.edits++
	g.dirty[idx] = true
	// The instance's input nets see a new receiver; so do the nets feeding
	// other instances of a newly modeled type.
	seen := map[string]bool{}
	for _, net := range append(receivers, inst.Inputs...) {
		if !seen[net] {
			seen[net] = true
			g.bumpLoad(net)
		}
	}
	return nil
}

// SetBackend switches the graph's stage evaluator in place (nil restores
// the CSM default) and grows its model set: the hybrid backend's
// refinement of a table-propagated graph. The listed stages, whose
// calculator changed, re-evaluate on the next Propagate even though their
// inputs did not move; the cached loads the added models change are
// dropped. Every stage left out must evaluate as before under the new hook
// and loads (a table stage ignores the CSM load). Then the propagated
// graph is bit-identical to a fresh Build with the new hook and models.
// SetBackend is not an edit: the netlist and the edit count stay as they are.
func (g *TimingGraph) SetBackend(eval EvalFunc, models map[string]*csm.Model, stages []int) error {
	for _, idx := range stages {
		if idx < 0 || idx >= len(g.nl.Instances) {
			return fmt.Errorf("graph: set_backend: stage %d out of range (%d stages)", idx, len(g.nl.Instances))
		}
	}
	receivers, err := g.addModels(models)
	if err != nil {
		return fmt.Errorf("graph: set_backend: %w", err)
	}
	for _, net := range receivers {
		delete(g.loads, net)
	}
	g.eval, g.customEval = eval, eval != nil
	if eval == nil {
		g.eval = sta.EvalStageWithLoad
	}
	for _, idx := range stages {
		g.lastEval[idx] = stageInputs{}
		g.dirty[idx] = true
	}
	return nil
}

// addModels validates models against the graph's rail and merges them
// into the model set (nothing merges if one fails). It returns the input
// nets of every instance whose type it adds or replaces: the nets whose
// stage loads gain or change a receiver.
func (g *TimingGraph) addModels(models map[string]*csm.Model) ([]string, error) {
	for t, m := range models {
		if g.models[t] != m && m.Vdd != g.vdd {
			return nil, fmt.Errorf("model %s has Vdd %g, graph built at %g", t, m.Vdd, g.vdd)
		}
	}
	var nets []string
	seen := map[string]bool{}
	for _, inst := range g.nl.Instances {
		if m, ok := models[inst.Type]; !ok || g.models[inst.Type] == m {
			continue
		}
		for _, net := range inst.Inputs {
			if !seen[net] {
				seen[net] = true
				nets = append(nets, net)
			}
		}
	}
	for t, m := range models {
		g.models[t] = m
	}
	return nets, nil
}

// SetArrival replaces a primary input's waveform. A bit-identical
// replacement is a no-op; otherwise the input's fanout stages become
// dirty. The analysis window stays pinned at the build-time horizon.
func (g *TimingGraph) SetArrival(net string, w wave.Waveform) error {
	if !g.primary[net] {
		return fmt.Errorf("graph: set_arrival: %q is not a primary input", net)
	}
	if w.Empty() {
		return fmt.Errorf("graph: set_arrival %s: empty waveform", net)
	}
	if old, ok := g.waves[net]; ok && waveEqual(old, w) {
		return nil
	}
	g.waves[net] = w
	g.pendingChanged[net] = true
	g.edits++
	for _, fo := range g.nl.Fanouts()[net] {
		g.dirty[fo[0]] = true
	}
	return nil
}

// Rewire reconnects one input pin of an instance to a different net. The
// new net must already carry a waveform source (a primary input or a
// driven net), and the edit is rejected — and rolled back — if it would
// create a combinational loop. The instance plus the drivers of the old
// and new nets (whose loads changed) become dirty; levelization is
// recomputed lazily on the next Propagate.
func (g *TimingGraph) Rewire(instName string, pin int, newNet string) error {
	idx, ok := g.instIdx[instName]
	if !ok {
		return fmt.Errorf("graph: rewire: unknown instance %q", instName)
	}
	inst := &g.nl.Instances[idx]
	if pin < 0 || pin >= len(inst.Inputs) {
		return fmt.Errorf("graph: rewire %s: pin %d out of range (cell %s has %d)",
			instName, pin, inst.Type, len(inst.Inputs))
	}
	if !g.primary[newNet] {
		if _, ok := g.driver[newNet]; !ok {
			return fmt.Errorf("graph: rewire %s: net %q has no driver and is not a primary input", instName, newNet)
		}
	}
	oldNet := inst.Inputs[pin]
	if oldNet == newNet {
		return nil
	}
	inst.Inputs[pin] = newNet
	g.nl.InvalidateTopology()
	if _, err := g.nl.Levels(); err != nil {
		inst.Inputs[pin] = oldNet
		g.nl.InvalidateTopology()
		return fmt.Errorf("graph: rewire %s pin %d -> %s: %w", instName, pin, newNet, err)
	}
	g.edits++
	g.dirty[idx] = true
	g.bumpLoad(oldNet)
	g.bumpLoad(newNet)
	return nil
}

// SetLoad sets the extra wire capacitance on a net (farads, ≥ 0). The
// net's driver becomes dirty; a load on a primary input affects nothing
// (no stage drives it) and is recorded but marks nothing dirty.
func (g *TimingGraph) SetLoad(net string, capF float64) error {
	if !g.nets[net] {
		return fmt.Errorf("graph: set_load: unknown net %q", net)
	}
	if capF < 0 {
		return fmt.Errorf("graph: set_load %s: negative capacitance %g", net, capF)
	}
	if old, ok := g.nl.NetCap[net]; (ok && old == capF) || (!ok && capF == 0) {
		return nil
	}
	g.nl.NetCap[net] = capF
	g.edits++
	g.bumpLoad(net)
	return nil
}

// bumpLoad advances a net's load generation, drops the cached load, and
// dirties the net's driving stage (whose output now sees a different RC).
func (g *TimingGraph) bumpLoad(net string) {
	g.loadGen[net]++
	delete(g.loads, net)
	if d, ok := g.driver[net]; ok {
		g.dirty[d] = true
	}
}

// --- Edit scripts -----------------------------------------------------

// DefaultEditSlew is the ramp transition time a set_arrival edit uses when
// the script omits "slew" — the same 80 ps every CLI default shares.
const DefaultEditSlew = 80e-12

// Edit is one scripted ECO operation. Exactly the fields of its op are
// set:
//
//	{"op":"swap_cell",   "inst":"U1", "type":"NOR2"}
//	{"op":"set_arrival", "net":"a",   "wave":"rise@1.2n", "slew":"60p"}
//	{"op":"set_arrival", "net":"b",   "wave":"high"}
//	{"op":"rewire",      "inst":"U2", "pin":1, "net":"n3"}
//	{"op":"set_load",    "net":"y",   "cap":"5f"}
//
// Times and capacitances are SI-suffixed strings parsed textually
// (units.ParseSI), so scripted values carry the identical float bits a Go
// literal would — the bit-exactness contract extends through edit scripts.
type Edit struct {
	Op   string `json:"op"`
	Inst string `json:"inst,omitempty"`
	Type string `json:"type,omitempty"`
	Net  string `json:"net,omitempty"`
	Pin  int    `json:"pin,omitempty"`
	Wave string `json:"wave,omitempty"` // rise@TIME | fall@TIME | high | low
	Slew string `json:"slew,omitempty"` // optional ramp slew (default 80p)
	Cap  string `json:"cap,omitempty"`  // SI farads
}

// EditScript is a replayable sequence of edit batches: each batch is
// applied atomically-in-order and followed by one Propagate, mirroring an
// interactive ECO session.
type EditScript struct {
	Batches [][]Edit `json:"batches"`
}

// ParseEditScript strictly decodes and validates an edit script: unknown
// fields and ops are rejected, required fields checked, and every numeric
// string parsed, so replay can only fail on graph-state conditions
// (unknown instance, loop creation), never on syntax.
func ParseEditScript(data []byte) (*EditScript, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s EditScript
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("graph: edit script: %w", err)
	}
	// Trailing garbage after the JSON value is a malformed script.
	if dec.More() {
		return nil, fmt.Errorf("graph: edit script: trailing data after script object")
	}
	if len(s.Batches) == 0 {
		return nil, fmt.Errorf("graph: edit script: no batches")
	}
	for bi, batch := range s.Batches {
		if len(batch) == 0 {
			return nil, fmt.Errorf("graph: edit script: batch %d is empty", bi)
		}
		for ei, e := range batch {
			if err := e.validate(); err != nil {
				return nil, fmt.Errorf("graph: edit script: batch %d edit %d: %w", bi, ei, err)
			}
		}
	}
	return &s, nil
}

// validate checks an edit's shape without a graph.
func (e Edit) validate() error {
	switch e.Op {
	case "swap_cell":
		if e.Inst == "" || e.Type == "" {
			return fmt.Errorf("swap_cell needs inst and type")
		}
		if e.Net != "" || e.Wave != "" || e.Slew != "" || e.Cap != "" || e.Pin != 0 {
			return fmt.Errorf("swap_cell takes only inst and type")
		}
	case "set_arrival":
		if e.Net == "" || e.Wave == "" {
			return fmt.Errorf("set_arrival needs net and wave")
		}
		if e.Inst != "" || e.Type != "" || e.Cap != "" || e.Pin != 0 {
			return fmt.Errorf("set_arrival takes only net, wave, and slew")
		}
		if _, _, _, err := parseArrival(e.Wave, e.Slew); err != nil {
			return err
		}
	case "rewire":
		if e.Inst == "" || e.Net == "" {
			return fmt.Errorf("rewire needs inst, pin, and net")
		}
		if e.Pin < 0 {
			return fmt.Errorf("rewire pin must be non-negative")
		}
		if e.Type != "" || e.Wave != "" || e.Slew != "" || e.Cap != "" {
			return fmt.Errorf("rewire takes only inst, pin, and net")
		}
	case "set_load":
		if e.Net == "" || e.Cap == "" {
			return fmt.Errorf("set_load needs net and cap")
		}
		if e.Inst != "" || e.Type != "" || e.Wave != "" || e.Slew != "" || e.Pin != 0 {
			return fmt.Errorf("set_load takes only net and cap")
		}
		c, err := units.ParseSI(e.Cap)
		if err != nil {
			return fmt.Errorf("set_load cap: %w", err)
		}
		if c < 0 {
			return fmt.Errorf("set_load cap must be non-negative")
		}
	case "":
		return fmt.Errorf("missing op")
	default:
		return fmt.Errorf("unknown op %q (want swap_cell, set_arrival, rewire, or set_load)", e.Op)
	}
	return nil
}

// parseArrival reads a set_arrival wave spec. kind is "rise", "fall",
// "high", or "low"; at/slew are meaningful for the ramp kinds only.
func parseArrival(spec, slewSpec string) (kind string, at, slew float64, err error) {
	slew = DefaultEditSlew
	if slewSpec != "" {
		if slew, err = units.ParseSI(slewSpec); err != nil {
			return "", 0, 0, fmt.Errorf("set_arrival slew: %w", err)
		}
		if slew <= 0 {
			return "", 0, 0, fmt.Errorf("set_arrival slew must be positive")
		}
	}
	switch spec {
	case "high", "low":
		if slewSpec != "" {
			return "", 0, 0, fmt.Errorf("set_arrival %s takes no slew", spec)
		}
		return spec, 0, 0, nil
	}
	dirAt := strings.SplitN(spec, "@", 2)
	if len(dirAt) != 2 || (dirAt[0] != "rise" && dirAt[0] != "fall") {
		return "", 0, 0, fmt.Errorf("bad set_arrival wave %q (want rise@TIME, fall@TIME, high, or low)", spec)
	}
	if at, err = units.ParseSI(dirAt[1]); err != nil {
		return "", 0, 0, fmt.Errorf("set_arrival time: %w", err)
	}
	return dirAt[0], at, slew, nil
}

// Apply performs one scripted edit against the graph.
func (g *TimingGraph) Apply(e Edit) error {
	if err := e.validate(); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	switch e.Op {
	case "swap_cell":
		return g.SwapCell(e.Inst, e.Type)
	case "set_arrival":
		kind, at, slew, err := parseArrival(e.Wave, e.Slew)
		if err != nil {
			return fmt.Errorf("graph: %w", err)
		}
		var w wave.Waveform
		switch kind {
		case "high":
			w = wave.Constant(g.vdd, 0, g.opt.Horizon)
		case "low":
			w = wave.Constant(0, 0, g.opt.Horizon)
		case "rise":
			w = wave.SaturatedRamp(0, g.vdd, at, slew, g.opt.Horizon)
		default: // fall
			w = wave.SaturatedRamp(g.vdd, 0, at, slew, g.opt.Horizon)
		}
		return g.SetArrival(e.Net, w)
	case "rewire":
		return g.Rewire(e.Inst, e.Pin, e.Net)
	default: // set_load (validate admitted nothing else)
		c, err := units.ParseSI(e.Cap)
		if err != nil {
			return fmt.Errorf("graph: set_load cap: %w", err)
		}
		return g.SetLoad(e.Net, c)
	}
}

// ApplyBatch applies edits in order, stopping at the first failure (whose
// index is reported). Returns the number of edits that applied.
func (g *TimingGraph) ApplyBatch(edits []Edit) (int, error) {
	for i, e := range edits {
		if err := g.Apply(e); err != nil {
			return i, fmt.Errorf("edit %d: %w", i, err)
		}
	}
	return len(edits), nil
}

// --- Delta reports ----------------------------------------------------

// DeltaReport is the canonical wire form of one ECO round: the economy
// stats plus golden-encoded measurements of exactly the nets whose
// waveforms changed. Map keys sort deterministically under encoding/json,
// and all floats use the exact shortest round-trip encoding, so equal
// state always produces identical bytes — the delta counterpart of
// sta.GoldenReport, golden-pinned the same way (testdata/golden).
type DeltaReport struct {
	Circuit           string                   `json:"circuit"`
	Vdd               string                   `json:"vdd"`
	EditsApplied      int                      `json:"edits_applied"`
	StagesTotal       int                      `json:"stages_total"`
	StagesReevaluated int                      `json:"stages_reevaluated"`
	StagesSkipped     int                      `json:"stages_skipped"`
	StagesConverged   int                      `json:"stages_converged"`
	ReevalFraction    string                   `json:"reeval_fraction"`
	ChangedNets       map[string]sta.GoldenNet `json:"changed_nets"`
	MIS               []string                 `json:"mis_instances"`
}

// Delta assembles the canonical delta for the given propagation outcome.
func (g *TimingGraph) Delta(circuit string, editsApplied int, stats Stats) *DeltaReport {
	sub := make(map[string]wave.Waveform, len(stats.ChangedNets))
	for _, net := range stats.ChangedNets {
		if w, ok := g.waves[net]; ok {
			sub[net] = w
		}
	}
	rep := sta.BuildReport(g.vdd, sub, g.misInstances())
	can := sta.CanonicalReport(circuit, rep)
	return &DeltaReport{
		Circuit:           circuit,
		Vdd:               can.Vdd,
		EditsApplied:      editsApplied,
		StagesTotal:       stats.StagesTotal,
		StagesReevaluated: stats.StagesEvaluated,
		StagesSkipped:     stats.StagesSkipped,
		StagesConverged:   stats.StagesConverged,
		ReevalFraction:    sta.FormatFloat(stats.ReevalFraction()),
		ChangedNets:       can.Nets,
		MIS:               can.MIS,
	}
}

// MarshalDelta renders the delta's canonical JSON bytes (two-space indent
// plus trailing newline — the same framing as the golden STA reports).
func MarshalDelta(d *DeltaReport) ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
