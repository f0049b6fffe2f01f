package nldm

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"mcsm/internal/cells"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// This file bridges NLDM libraries to the stage-evaluation contract of
// internal/sta: the table-lookup delay calculator the paper argues
// against, implemented over the same netlists, waveform containers, and
// report format as the CSM path so the two are directly interchangeable
// (and hybridizable) inside the engine.
//
// Per stage, each switching input's (arrival, slew) is measured off its
// waveform, the matching arc is interpolated at (slew, lumped load), and
// the latest-arriving candidate wins; the output is reconstructed as a
// saturated ramp. All waveform *shape* beyond the first transition is
// discarded — exactly the abstraction whose failure modes the CSM
// backend exists to fix.
//
// The pass is a 2-vector analysis, not a pure arc sweep: each stage's
// settled input levels before and after the event are pushed through the
// cell's boolean function, and a transition is emitted only when the
// output's settled level actually changes. Without this filter, deep
// circuits (c432+) accumulate logically-impossible transitions and the
// pass's pessimism compounds level by level — which would poison the
// hybrid backend's slack ranking. Glitch suppression by controlling side
// inputs remains invisible (that is simulation knowledge), so the pass
// is still pessimistic, never optimistic.

// Evaluator evaluates netlist stages from characterized NLDM libraries.
// It is safe for concurrent EvalStage calls (the level-parallel schedule
// of the timing graph).
type Evaluator struct {
	vdd    float64
	libFor func(cellType string) (*Library, error)

	mu   sync.RWMutex
	libs map[string]*Library
}

// NewEvaluator builds an evaluator over per-cell-type libraries. libFor,
// when non-nil, supplies libraries for cell types first seen later (ECO
// swaps to uncharacterized variants); results are memoized. All libraries
// must share one supply voltage.
func NewEvaluator(libs map[string]*Library, libFor func(cellType string) (*Library, error)) (*Evaluator, error) {
	ev := &Evaluator{libs: make(map[string]*Library, len(libs)), libFor: libFor}
	for cell, lib := range libs {
		if err := ev.add(cell, lib); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// Vdd returns the shared supply voltage (0 until a library is known).
func (ev *Evaluator) Vdd() float64 { return ev.vdd }

func (ev *Evaluator) add(cell string, lib *Library) error {
	if lib == nil || len(lib.Arcs) == 0 {
		return fmt.Errorf("nldm: cell %s has no arcs", cell)
	}
	if lib.Vdd <= 0 {
		return fmt.Errorf("nldm: cell %s library has no supply voltage", cell)
	}
	if ev.vdd == 0 {
		ev.vdd = lib.Vdd
	} else if lib.Vdd != ev.vdd {
		return fmt.Errorf("nldm: cell %s characterized at %gV, evaluator at %gV", cell, lib.Vdd, ev.vdd)
	}
	ev.libs[cell] = lib
	return nil
}

func (ev *Evaluator) lib(cellType string) (*Library, error) {
	ev.mu.RLock()
	lib, ok := ev.libs[cellType]
	ev.mu.RUnlock()
	if ok {
		return lib, nil
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if lib, ok := ev.libs[cellType]; ok {
		return lib, nil
	}
	if ev.libFor == nil {
		return nil, fmt.Errorf("nldm: no library for cell type %q", cellType)
	}
	lib, err := ev.libFor(cellType)
	if err != nil {
		return nil, err
	}
	if err := ev.add(cellType, lib); err != nil {
		return nil, err
	}
	return lib, nil
}

// StageLoadCap is the lumped capacitive load NLDM charges the driver of a
// net with: the net's wire capacitance plus every fanout pin's input
// capacitance. Computed fresh per call so cell swaps are picked up
// without cache invalidation.
func (ev *Evaluator) StageLoadCap(nl *sta.Netlist, net string) (float64, error) {
	load := nl.NetCap[net]
	for _, fo := range nl.Fanouts()[net] {
		inst := &nl.Instances[fo[0]]
		lib, err := ev.lib(inst.Type)
		if err != nil {
			return 0, err
		}
		spec, err := cells.Get(inst.Type)
		if err != nil {
			return 0, err
		}
		pin := spec.Inputs[fo[1]]
		c, err := lib.InputCapFor(pin)
		if err != nil {
			return 0, fmt.Errorf("nldm: %s %s: %w", inst.Name, inst.Type, err)
		}
		load += c
	}
	return load, nil
}

// StageEdge is one candidate timing arc evaluated at a stage: the delay
// predicted from the named input net's 50% crossing to the output's. The
// hybrid backend's slack classification propagates required times
// backward over these edges (Slacks).
type StageEdge struct {
	Net   string
	Delay float64
}

// EvalStage evaluates one instance from the input waveforms already in
// waves, returning the reconstructed output ramp and the switching-input
// count — the same contract as sta.EvalStageWithLoad, so the timing graph
// can route stages to either calculator.
func (ev *Evaluator) EvalStage(nl *sta.Netlist, idx int, waves map[string]wave.Waveform, opt sta.Options) (wave.Waveform, int, error) {
	outW, sw, _, err := ev.EvalStageEdges(nl, idx, waves, opt)
	return outW, sw, err
}

// EvalStageEdges is EvalStage plus the candidate arcs the stage weighed
// (nil when its output does not transition): the per-stage record a
// propagation collects for Slacks.
func (ev *Evaluator) EvalStageEdges(nl *sta.Netlist, idx int, waves map[string]wave.Waveform, opt sta.Options) (wave.Waveform, int, []StageEdge, error) {
	inst := nl.Instances[idx]
	lib, err := ev.lib(inst.Type)
	if err != nil {
		return wave.Waveform{}, 0, nil, err
	}
	spec, err := cells.Get(inst.Type)
	if err != nil {
		return wave.Waveform{}, 0, nil, err
	}
	if len(inst.Inputs) != len(spec.Inputs) {
		return wave.Waveform{}, 0, nil, fmt.Errorf("nldm: stage %s: %d input nets for %d-pin %s",
			inst.Name, len(inst.Inputs), len(spec.Inputs), inst.Type)
	}
	load, err := ev.StageLoadCap(nl, inst.Output)
	if err != nil {
		return wave.Waveform{}, 0, nil, err
	}
	vdd := ev.vdd

	type candidate struct {
		arc       *Arc
		arr, slew float64
		t50       float64
		edge      StageEdge
	}
	var cands []candidate
	levels := make([]bool, len(inst.Inputs)) // settled post-event levels
	initial := make([]bool, len(inst.Inputs))
	switching := 0
	for i, net := range inst.Inputs {
		w, ok := waves[net]
		if !ok || w.Empty() {
			return wave.Waveform{}, 0, nil, fmt.Errorf("nldm: stage %s: no waveform for net %q", inst.Name, net)
		}
		initial[i] = w.First() > vdd/2
		first, ok := w.FirstCross(vdd / 2)
		if !ok {
			levels[i] = w.Last() > vdd/2
			continue
		}
		switching++
		last, _ := w.LastCross(vdd / 2)
		levels[i] = last.Rising // settled post-transition level
		arr, rising := first.Time, first.Rising
		arc, err := lib.FindArc(inst.Type, spec.Inputs[i], rising)
		if err != nil {
			return wave.Waveform{}, 0, nil, fmt.Errorf("nldm: stage %s: %w", inst.Name, err)
		}
		slewIn, serr := wave.TransitionTime(w, vdd, rising, 0.1, 0.9, 0)
		if serr != nil {
			// Degenerate edge (e.g. a step stimulus that never spans
			// 10–90%): fall back to the fastest characterized slew.
			slewIn = arc.Delay.Axes[0].Points[0]
		}
		delay, _ := arc.Evaluate(slewIn, load)
		cands = append(cands, candidate{
			arc: arc, arr: arr, slew: slewIn, t50: arr + delay,
			edge: StageEdge{Net: net, Delay: delay},
		})
	}

	if switching == 0 {
		high, err := staticOutputLevel(inst.Type, levels)
		if err != nil {
			return wave.Waveform{}, 0, nil, fmt.Errorf("nldm: stage %s: %w", inst.Name, err)
		}
		v := 0.0
		if high {
			v = vdd
		}
		return wave.Constant(v, 0, opt.Horizon), 0, nil, nil
	}

	// 2-vector filter: push the settled levels before and after the event
	// through the cell's function. No output change → no transition, no
	// matter how many inputs moved. Cells without a known function (e.g.
	// Liberty-ingested sequentials) skip the filter and keep the blind
	// worst-arc rule.
	outInit, ierr := staticOutputLevel(inst.Type, initial)
	outFinal, ferr := staticOutputLevel(inst.Type, levels)
	if ierr == nil && ferr == nil {
		if outInit == outFinal {
			v := 0.0
			if outFinal {
				v = vdd
			}
			return wave.Constant(v, 0, opt.Horizon), switching, nil, nil
		}
		// The output provably transitions toward outFinal: candidates whose
		// arc lands the opposite direction describe impossible events. Keep
		// them only if nothing matches (a glitchy corner the 2-vector view
		// cannot order) — pessimism over silence.
		matching := cands[:0:0]
		for _, c := range cands {
			if c.arc.OutRise == outFinal {
				matching = append(matching, c)
			}
		}
		if len(matching) > 0 {
			cands = matching
		}
	}

	// Latest-arriving candidate wins (NLDM's worst-arc rule); ties keep
	// the first pin for determinism.
	win := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].t50 > cands[win].t50 {
			win = i
		}
	}
	edges := make([]StageEdge, len(cands))
	for i := range cands {
		edges[i] = cands[i].edge
	}
	c := cands[win]
	return c.arc.OutputRamp(vdd, c.arr, c.slew, load, opt.Horizon), switching, edges, nil
}

// staticOutputLevel evaluates the settled boolean output of a catalog
// cell when no input switches. Drive variants (NAND2_X2) share the base
// type's function.
func staticOutputLevel(cellType string, in []bool) (bool, error) {
	base, _, _ := strings.Cut(cellType, "_")
	and := func() bool {
		all := true
		for _, l := range in {
			all = all && l
		}
		return all
	}
	or := func() bool {
		for _, l := range in {
			if l {
				return true
			}
		}
		return false
	}
	switch {
	case base == "INV" && len(in) == 1:
		return !in[0], nil
	case (base == "NAND2" || base == "NAND3") && len(in) >= 2:
		return !and(), nil
	case (base == "NOR2" || base == "NOR3") && len(in) >= 2:
		return !or(), nil
	case base == "AOI21" && len(in) == 3:
		return !((in[0] && in[1]) || in[2]), nil
	case base == "OAI21" && len(in) == 3:
		return !((in[0] || in[1]) && in[2]), nil
	}
	return false, fmt.Errorf("no boolean function for cell type %q with %d inputs", cellType, len(in))
}

// Slacks computes each instance's output slack from a propagated table
// analysis: rep holds its arrivals and edges[i] the candidate arcs stage i
// weighed (EvalStageEdges). Required times start at the worst primary
// output arrival and propagate backward over the arc delays; slack =
// required(output) − arrival(output). Stages whose outputs never switch
// (or that reach no primary output) carry +Inf slack — a CSM
// re-evaluation cannot change the answer there. Without a switching
// primary output (none declared, or none crosses) every slack is +Inf.
func Slacks(nl *sta.Netlist, rep *sta.Report, edges [][]StageEdge) ([]float64, error) {
	levels, err := nl.Levels()
	if err != nil {
		return nil, err
	}
	if len(edges) != len(nl.Instances) {
		return nil, fmt.Errorf("nldm: slacks: %d edge records for %d instances", len(edges), len(nl.Instances))
	}
	arrival := func(net string) float64 {
		if nr, ok := rep.Nets[net]; ok {
			return nr.Arrival
		}
		return math.NaN()
	}
	// Tmax: the latest primary-output arrival. An output driver that
	// records an arc has a finite arrival (Arc.OutputRamp completes every
	// ramp inside the waveform), so when no output switches no driver
	// has an arc to propagate a required time over: every slack is +Inf.
	_, tmax, ok := rep.WorstOutput(nl)
	if !ok {
		tmax = math.Inf(1)
	}
	req := make(map[string]float64, len(nl.PrimaryOut))
	for _, po := range nl.PrimaryOut {
		req[po] = tmax
	}
	reqOf := func(net string) float64 {
		if v, ok := req[net]; ok {
			return v
		}
		return math.Inf(1)
	}

	slacks := make([]float64, len(nl.Instances))
	for li := len(levels) - 1; li >= 0; li-- {
		for _, idx := range levels[li] {
			out := nl.Instances[idx].Output
			ro := reqOf(out)
			a := arrival(out)
			if math.IsNaN(a) || math.IsInf(ro, 1) {
				slacks[idx] = math.Inf(1)
			} else {
				slacks[idx] = ro - a
			}
			if math.IsInf(ro, 1) {
				continue
			}
			for _, e := range edges[idx] {
				if v := ro - e.Delay; v < reqOf(e.Net) {
					req[e.Net] = v
				}
			}
		}
	}
	return slacks, nil
}
