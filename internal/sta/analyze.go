package sta

import (
	"fmt"
	"math"
	"sort"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// Mode selects the propagation policy.
type Mode int

// Propagation modes.
const (
	// ModeMIS simulates all switching inputs of a stage together.
	ModeMIS Mode = iota
	// ModeSIS applies the conventional single-input-switching assumption.
	ModeSIS
)

// Options configures an analysis run.
type Options struct {
	Mode    Mode
	Dt      float64 // stage integration step (default 1 ps)
	Horizon float64 // simulation window end (default: last input end + 2 ns)
}

// NetResult records the timing view of one net.
type NetResult struct {
	Wave    wave.Waveform
	Arrival float64 // first 50% crossing after t=0 (NaN if the net never switches)
	Slew    float64 // 10–90% transition time of that first transition
	Rising  bool    // direction of the first transition
}

// Report is the outcome of an analysis.
type Report struct {
	Vdd  float64
	Nets map[string]NetResult
	// MISInstances lists cells at which two or more modeled inputs switch
	// during the window — the events conventional SIS timing mispredicts.
	MISInstances []string
}

// Analyze propagates primary-input waveforms through the netlist using the
// given per-cell-type models. Net loading combines the per-net wire caps
// with the fanout cells' receiver capacitance tables.
//
// Analyze is the serial reference path; internal/engine runs the exact same
// Setup/EvalStage/BuildReport primitives level-parallel and is guaranteed
// (by test) to produce a bit-identical Report.
func Analyze(nl *Netlist, models map[string]*csm.Model, primary map[string]wave.Waveform, opt Options) (*Report, error) {
	order, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	vdd, opt, err := Setup(models, primary, opt)
	if err != nil {
		return nil, err
	}

	waves := map[string]wave.Waveform{}
	for net, w := range primary {
		waves[net] = w
	}
	fanouts := nl.Fanouts()
	var mis []string

	for _, idx := range order {
		outW, switching, err := EvalStage(nl, models, fanouts, idx, waves, vdd, opt)
		if err != nil {
			return nil, err
		}
		if switching >= 2 {
			mis = append(mis, nl.Instances[idx].Name)
		}
		waves[nl.Instances[idx].Output] = outW
	}
	return BuildReport(vdd, waves, mis), nil
}

// Setup validates the model set and resolves defaulted options (Dt, Horizon
// derived from the primary stimuli). It is exported so that alternative
// schedulers (internal/engine) share the serial path's prologue exactly.
func Setup(models map[string]*csm.Model, primary map[string]wave.Waveform, opt Options) (float64, Options, error) {
	var vdd float64
	for _, m := range models {
		vdd = m.Vdd
	}
	if vdd == 0 {
		return 0, opt, fmt.Errorf("sta: no models supplied")
	}
	return vdd, ResolveOptions(primary, opt), nil
}

// ResolveOptions fills the defaulted analysis options (Dt, Horizon derived
// from the primary stimuli) without requiring a model set — shared by
// Setup and by delay backends that carry their own supply voltage.
func ResolveOptions(primary map[string]wave.Waveform, opt Options) Options {
	if opt.Dt <= 0 {
		opt.Dt = 1e-12
	}
	if opt.Horizon <= 0 {
		var last float64
		for _, w := range primary {
			if !w.Empty() && w.End() > last {
				last = w.End()
			}
		}
		opt.Horizon = last + 2e-9
	}
	return opt
}

// CheckWindow reports an analysis window that no fixed-step stage solve
// could run: dt and the horizon (resolved like ResolveOptions does) must
// give a positive step count of at most spice.MaxSteps. Callers check it
// before characterizing models, so a request that asks for billions of
// steps fails at once instead of after the setup.
func CheckWindow(primary map[string]wave.Waveform, opt Options) error {
	opt = ResolveOptions(primary, opt)
	_, err := spice.FixedSteps(0, opt.Horizon, opt.Dt)
	return err
}

// EvalStage evaluates the single instance at index idx: it gathers the
// instance's input waveforms from waves, builds the output load, and runs
// the stage simulation, returning the output waveform and the number of
// switching inputs. waves must already hold a waveform for every input net
// of the instance and is only read — concurrent EvalStage calls over the
// instances of one topological level (which never consume each other's
// outputs) are safe as long as no call writes waves in parallel.
func EvalStage(nl *Netlist, models map[string]*csm.Model, fanouts map[string][][2]int, idx int, waves map[string]wave.Waveform, vdd float64, opt Options) (wave.Waveform, int, error) {
	return EvalStageWithLoad(nl, models, idx, waves,
		StageLoad(nl, models, fanouts, nl.Instances[idx].Output), vdd, opt)
}

// EvalStageWithLoad is EvalStage with the output load supplied by the
// caller instead of rebuilt from the fanout map — the primitive the
// incremental timing graph uses to retain per-stage loads across edits
// instead of reassembling them on every evaluation.
func EvalStageWithLoad(nl *Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt Options) (wave.Waveform, int, error) {
	inst := nl.Instances[idx]
	model, ok := models[inst.Type]
	if !ok {
		return wave.Waveform{}, 0, fmt.Errorf("sta: no model for cell type %q (instance %s)", inst.Type, inst.Name)
	}
	inWaves, switching, err := gatherInputs(inst, model, waves, opt.Horizon)
	if err != nil {
		return wave.Waveform{}, 0, err
	}

	var outW wave.Waveform
	if opt.Mode == ModeSIS && switching >= 2 {
		spec, serr := cells.Get(inst.Type)
		if serr != nil {
			return wave.Waveform{}, 0, serr
		}
		outW, err = simulateSIS(model, inWaves, spec, vdd, load, opt)
	} else {
		outW, err = simulateStageWaves(model, inWaves, load, opt)
	}
	if err != nil {
		return wave.Waveform{}, 0, fmt.Errorf("sta: stage %s: %w", inst.Name, err)
	}
	return outW, switching, nil
}

// BuildReport measures every net waveform into a Report. misInstances is
// taken over (and sorted) as the report's MIS list.
func BuildReport(vdd float64, waves map[string]wave.Waveform, misInstances []string) *Report {
	rep := &Report{Vdd: vdd, Nets: map[string]NetResult{}, MISInstances: misInstances}
	for net, w := range waves {
		rep.Nets[net] = measureNet(w, vdd)
	}
	sort.Strings(rep.MISInstances)
	return rep
}

// gatherInputs maps instance input nets to the model's input order and
// counts how many of them actually switch. Pins held by the model must be
// fed by non-switching nets.
func gatherInputs(inst Instance, model *csm.Model, waves map[string]wave.Waveform, horizon float64) ([]wave.Waveform, int, error) {
	spec, err := cells.Get(inst.Type)
	if err != nil {
		return nil, 0, fmt.Errorf("sta: instance %s: %w", inst.Name, err)
	}
	if len(inst.Inputs) != len(spec.Inputs) {
		return nil, 0, fmt.Errorf("sta: %s has %d input nets, cell %s expects %d",
			inst.Name, len(inst.Inputs), inst.Type, len(spec.Inputs))
	}
	netOfPin := map[string]string{}
	for i, pin := range spec.Inputs {
		netOfPin[pin] = inst.Inputs[i]
	}
	out := make([]wave.Waveform, len(model.Inputs))
	switching := 0
	for i, pin := range model.Inputs {
		net := netOfPin[pin]
		w, ok := waves[net]
		if !ok {
			return nil, 0, fmt.Errorf("sta: %s input net %q has no waveform", inst.Name, net)
		}
		out[i] = w
		if netSwitches(w) {
			switching++
		}
	}
	// Held (non-modeled) pins must be static at the held level.
	for pin, lvl := range model.Held {
		net := netOfPin[pin]
		w, ok := waves[net]
		if !ok {
			return nil, 0, fmt.Errorf("sta: %s held pin %s net %q has no waveform", inst.Name, pin, net)
		}
		if netSwitches(w) || math.Abs(w.First()-lvl) > 0.05 {
			return nil, 0, fmt.Errorf("sta: %s pin %s is not modeled by the %s CSM and must stay at %g",
				inst.Name, pin, model.Kind, lvl)
		}
	}
	_ = horizon
	return out, switching, nil
}

// netSwitches reports whether a waveform leaves its initial level by more
// than a quarter of its span.
func netSwitches(w wave.Waveform) bool {
	if w.Empty() {
		return false
	}
	min, max := w.Extremum(w.Start(), w.End())
	return max-min > 0.25
}

// StageLoad builds the load on a net: wire capacitance plus every fanout
// pin's receiver capacitance table. It is exported so the incremental
// timing graph can rebuild exactly the load the one-shot path would see
// when an edit invalidates a retained one.
func StageLoad(nl *Netlist, models map[string]*csm.Model, fanouts map[string][][2]int, net string) csm.Load {
	var loads csm.MultiLoad
	if c := nl.NetCap[net]; c > 0 {
		loads = append(loads, csm.CapLoad(c))
	}
	for _, fo := range fanouts[net] {
		inst := nl.Instances[fo[0]]
		model, ok := models[inst.Type]
		if !ok {
			continue
		}
		spec, err := cells.Get(inst.Type)
		if err != nil {
			continue
		}
		pin := spec.Inputs[fo[1]]
		idx := -1
		for i, p := range model.Inputs {
			if p == pin {
				idx = i
			}
		}
		if idx < 0 {
			// Held pin: approximate with the first receiver table.
			idx = 0
		}
		loads = append(loads, csm.ReceiverLoad{Model: model, InputIndex: idx, Count: 1})
	}
	if len(loads) == 0 {
		loads = append(loads, csm.CapLoad(1e-16))
	}
	return loads
}

// simulateStageWaves runs one implicit stage simulation over the window,
// recording only the output waveform.
func simulateStageWaves(model *csm.Model, inputs []wave.Waveform, load csm.Load, opt Options) (wave.Waveform, error) {
	return csm.SimulateStageOut(model, inputs, load, 0, opt.Horizon, opt.Dt)
}

// simulateSIS applies the conventional SIS assumption to a stage with
// multiple switching inputs: each switching input is simulated alone with
// the other inputs parked at the cell's *non-controlling* level — exactly
// the condition single-input delay arcs are characterized under — and the
// arc with the latest output arrival defines the stage output. Because a
// real MIS event makes every series device switch together (the stack is
// not pre-conducting), this assumption is optimistic, reproducing the
// delay-underestimation failure of SIS timing [6].
func simulateSIS(model *csm.Model, inputs []wave.Waveform, spec cells.Spec, vdd float64, load csm.Load, opt Options) (wave.Waveform, error) {
	var best wave.Waveform
	bestArrival := math.Inf(-1)
	for i := range inputs {
		if !netSwitches(inputs[i]) {
			continue
		}
		solo := make([]wave.Waveform, len(inputs))
		for j := range inputs {
			if j == i {
				solo[j] = inputs[j]
			} else {
				solo[j] = wave.Constant(spec.NonControllingLevelFor(model.Inputs[j], vdd), 0, opt.Horizon)
			}
		}
		outW, err := simulateStageWaves(model, solo, load, opt)
		if err != nil {
			return wave.Waveform{}, err
		}
		arr := firstArrival(outW, model.Vdd)
		if arr > bestArrival {
			bestArrival = arr
			best = outW
		}
	}
	if best.Empty() {
		return wave.Waveform{}, fmt.Errorf("csm: SIS stage saw no switching input")
	}
	return best, nil
}

// firstArrival returns the first 50% crossing, or −Inf when absent.
func firstArrival(w wave.Waveform, vdd float64) float64 {
	c, ok := w.FirstCross(vdd / 2)
	if !ok {
		return math.Inf(-1)
	}
	return c.Time
}

// measureNet extracts arrival/slew/direction from a net waveform.
func measureNet(w wave.Waveform, vdd float64) NetResult {
	nr := NetResult{Wave: w, Arrival: math.NaN()}
	c, ok := w.FirstCross(vdd / 2)
	if !ok {
		return nr
	}
	nr.Arrival = c.Time
	nr.Rising = c.Rising
	if s, err := wave.TransitionTime(w, vdd, c.Rising, 0.1, 0.9, 0); err == nil {
		nr.Slew = s
	}
	return nr
}
