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
	// grid is the window's time axis, [0, Horizon] at Dt, which every
	// fixed-step stage solve of the analysis records on and every stage
	// output shares. Only ResolveOptions writes it; copies of the resolved
	// options carry it to each solve.
	grid *spice.Grid
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
// Setup and by delay backends that carry their own supply voltage. It
// builds the window's grid once for the whole analysis; a window no grid
// can cover leaves it nil, and the stage solves report it.
func ResolveOptions(primary map[string]wave.Waveform, opt Options) Options {
	opt = resolveWindow(primary, opt)
	opt.grid, _ = spice.NewGrid(0, opt.Horizon, opt.Dt)
	return opt
}

// resolveWindow fills the defaulted Dt and Horizon.
func resolveWindow(primary map[string]wave.Waveform, opt Options) Options {
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
	opt = resolveWindow(primary, opt)
	_, err := spice.FixedSteps(0, opt.Horizon, opt.Dt)
	return err
}

// window returns the window's grid: the resolved one, or for options that
// were never resolved or whose Dt or Horizon changed since, a grid of the
// solve's own.
func (opt Options) window() (*spice.Grid, error) {
	if g := opt.grid; g != nil && g.Spans(0, opt.Horizon, opt.Dt) {
		return g, nil
	}
	return spice.NewGrid(0, opt.Horizon, opt.Dt)
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
//
// Under ModeMIS an input may be a live view (wave.Stream) of a fanin
// stage that is still being solved, and waves may hold a live view for
// the stage's own output net, into which the solve publishes its output.
// The MIS solve reads its inputs only at its own step times, so it runs
// first; the switching count and the held-pin check read whole
// waveforms, so they wait until the inputs are final, and their error
// wins over the solve's, as when they ran first.
func EvalStageWithLoad(nl *Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt Options) (wave.Waveform, int, error) {
	inst := nl.Instances[idx]
	model, ok := models[inst.Type]
	if !ok {
		return wave.Waveform{}, 0, fmt.Errorf("sta: no model for cell type %q (instance %s)", inst.Type, inst.Name)
	}
	inWaves, held, err := gatherInputs(inst, model, waves)
	if err != nil {
		return wave.Waveform{}, 0, err
	}

	var outW wave.Waveform
	var solveErr error
	mis := opt.Mode != ModeSIS
	if mis {
		outW, solveErr = simulateStageWaves(model, inWaves, load, opt, waves[inst.Output].Stream())
	}
	switching, err := checkInputs(inst, model, inWaves, held)
	if err != nil {
		return wave.Waveform{}, 0, err
	}
	if !mis {
		if switching >= 2 {
			spec, serr := cells.Get(inst.Type)
			if serr != nil {
				return wave.Waveform{}, 0, serr
			}
			outW, solveErr = simulateSIS(model, inWaves, spec, vdd, load, opt)
		} else {
			outW, solveErr = simulateStageWaves(model, inWaves, load, opt, nil)
		}
	}
	if solveErr != nil {
		return wave.Waveform{}, 0, fmt.Errorf("sta: stage %s: %w", inst.Name, solveErr)
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
// returns the waveforms of the nets on pins the model holds, keyed by
// pin. It reads only which nets have waveforms, so its inputs may be
// live.
func gatherInputs(inst Instance, model *csm.Model, waves map[string]wave.Waveform) ([]wave.Waveform, map[string]wave.Waveform, error) {
	spec, err := cells.Get(inst.Type)
	if err != nil {
		return nil, nil, fmt.Errorf("sta: instance %s: %w", inst.Name, err)
	}
	if len(inst.Inputs) != len(spec.Inputs) {
		return nil, nil, fmt.Errorf("sta: %s has %d input nets, cell %s expects %d",
			inst.Name, len(inst.Inputs), inst.Type, len(spec.Inputs))
	}
	netOfPin := map[string]string{}
	for i, pin := range spec.Inputs {
		netOfPin[pin] = inst.Inputs[i]
	}
	out := make([]wave.Waveform, len(model.Inputs))
	for i, pin := range model.Inputs {
		net := netOfPin[pin]
		w, ok := waves[net]
		if !ok {
			return nil, nil, fmt.Errorf("sta: %s input net %q has no waveform", inst.Name, net)
		}
		out[i] = w
	}
	var held map[string]wave.Waveform
	for pin := range model.Held {
		net := netOfPin[pin]
		w, ok := waves[net]
		if !ok {
			return nil, nil, fmt.Errorf("sta: %s held pin %s net %q has no waveform", inst.Name, pin, net)
		}
		if held == nil {
			held = map[string]wave.Waveform{}
		}
		held[pin] = w
	}
	return out, held, nil
}

// checkInputs waits until the gathered waveforms are final (replacing
// live views in in with them), counts the inputs that switch, and checks
// that every held pin is static at its held level.
func checkInputs(inst Instance, model *csm.Model, in []wave.Waveform, held map[string]wave.Waveform) (int, error) {
	switching := 0
	for i, w := range in {
		w, err := w.Final()
		if err != nil {
			return 0, fmt.Errorf("sta: %s input: %w", inst.Name, err)
		}
		in[i] = w
		if netSwitches(w) {
			switching++
		}
	}
	for pin, w := range held {
		w, err := w.Final()
		if err != nil {
			return 0, fmt.Errorf("sta: %s held pin %s: %w", inst.Name, pin, err)
		}
		if lvl := model.Held[pin]; netSwitches(w) || math.Abs(w.First()-lvl) > 0.05 {
			return 0, fmt.Errorf("sta: %s pin %s is not modeled by the %s CSM and must stay at %g",
				inst.Name, pin, model.Kind, lvl)
		}
	}
	return switching, nil
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

// simulateStageWaves runs one implicit stage simulation over the window's
// grid, recording only the output waveform and publishing it into a
// non-nil stream.
func simulateStageWaves(model *csm.Model, inputs []wave.Waveform, load csm.Load, opt Options, out *wave.Stream) (wave.Waveform, error) {
	g, err := opt.window()
	if err != nil {
		return wave.Waveform{}, err
	}
	return csm.SimulateStageOut(model, inputs, load, g, out)
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
		outW, err := simulateStageWaves(model, solo, load, opt, nil)
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
