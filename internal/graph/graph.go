// Package graph is the incremental layer of the timing stack: a retained
// TimingGraph that owns a levelized netlist, the per-net waveforms of the
// last propagation, per-stage input records, and cached stage loads —
// built once and then updated in place through an ECO-style edit API
// (SwapCell, SetArrival, Rewire, SetLoad).
//
// Edits mark a dirty frontier; Propagate re-evaluates only the dirty
// stages and the transitive fanout cone of whatever actually changed, on
// a worker pool that starts a stage as soon as it is certain to run and
// commits results level by level (schedule.go), with two cutoffs:
//
//   - input cutoff: a dirty stage whose retained input record (cell
//     type, output-load generation, and the exact input waveforms of its
//     last evaluation) matches its current inputs is skipped outright —
//     its output cannot have changed. The comparison is exact, not a
//     hash: untouched nets still alias the retained slices (O(1)), and
//     replaced waves compare bit-by-bit;
//   - convergence cutoff: a re-evaluated stage whose output waveform is
//     bit-identical to the retained one stops propagation below it.
//
// Because every stage that is evaluated runs the identical
// sta.EvalStageWithLoad primitive against bit-identical inputs, the
// headline invariant holds exactly (and is enforced by test at several
// worker counts): after any edit sequence, the retained state is
// bit-identical to a cold full analysis of the edited netlist.
// internal/engine's Analyze is itself a thin wrapper over "build graph +
// full propagate", so the one-shot and incremental paths cannot drift.
package graph

import (
	"math"
	"runtime"
	"sync/atomic"

	"mcsm/internal/csm"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// EvalFunc is the stage-evaluation primitive a TimingGraph routes every
// (re-)evaluation through — the sta.EvalStageWithLoad signature. Delay
// backends substitute table lookup or per-stage mixed evaluation here; a
// nil hook means the CSM waveform path, bit-identical to the one-shot
// engine. Implementations must be safe for concurrent calls on stages
// that do not feed each other. waves holds (at least) the stage's input
// nets, is read-only and valid only during the call; for a stage the
// graph's Config declares live (WithLiveStages), input entries may be
// live views of fanin stages still being solved, and the entry for the
// stage's own output net is the live view its solve publishes into.
type EvalFunc func(nl *sta.Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt sta.Options) (wave.Waveform, int, error)

// Config scopes a TimingGraph build.
type Config struct {
	// Workers is the pool width for Propagate (0 = GOMAXPROCS, 1 =
	// serial). Results are bit-identical either way.
	Workers int
	// ModelFor, when set, characterizes (or fetches) a model for a cell
	// type that SwapCell introduces beyond the initially supplied set —
	// typically a closure over an engine.ModelCache. Without it, swapping
	// to an unmodeled type is an error.
	ModelFor func(cellType string) (*csm.Model, error)
	// ShareNetlist builds the graph directly on nl instead of a private
	// clone. Only safe when the graph will never be edited (the engine's
	// one-shot wrapper) — edit ops mutate the netlist in place.
	ShareNetlist bool
	// Eval overrides the stage evaluator (nil = sta.EvalStageWithLoad).
	// The graph retains the hook until SetBackend replaces it, so ECO
	// sessions keep their delay backend across every edit round.
	Eval EvalFunc
	// Vdd supplies the rail voltage when the graph runs without CSM models
	// (a table-only Eval hook); ignored when models are present.
	Vdd float64
	// EvalHist, when set, receives the duration of every stage
	// evaluation — the engine threads its stage-latency histogram here.
	// A stage that started on a live input counts, within its duration,
	// the time it waited for its producer's samples. Nil disables the
	// timing entirely (no clock reads on the hot path).
	EvalHist *obs.Histogram

	live func(idx int) bool // WithLiveStages
}

// WithLiveStages returns c declaring the stages whose evaluation is the
// CSM stage solve of sta.EvalStageWithLoad: it reads each input only at
// its own step times and publishes its output while it records it. With
// more than one worker and ModeMIS, such a stage may start while a fanin
// stage of the same kind is still being solved, reading that input as it
// is recorded. A nil Eval is that solve for every stage, so a graph
// without a hook declares every stage; a hook that wraps the solve
// (keeping its waves argument) keeps the declaration of the plan it came
// from.
func (c Config) WithLiveStages(live func(idx int) bool) Config {
	c.live = live
	return c
}

// Stats summarizes one Propagate call.
type Stats struct {
	// StagesTotal is the stage count of the whole netlist.
	StagesTotal int
	// StagesEvaluated counts stages actually re-simulated.
	StagesEvaluated int
	// StagesSkipped counts dirty stages pruned by the input cutoff
	// (their inputs turned out bit-identical to the retained ones).
	StagesSkipped int
	// StagesConverged counts evaluated stages whose output came back
	// bit-identical to the retained waveform, cutting propagation there.
	StagesConverged int
	// StagesStreamed counts evaluated stages that started while one of
	// their inputs was still being solved. It depends on the schedule, so
	// it never enters a report or a delta.
	StagesStreamed int
	// ChangedNets lists, sorted, every net whose retained waveform changed
	// (including primary inputs replaced by SetArrival).
	ChangedNets []string
}

// ReevalFraction is the fraction of the circuit the propagation touched —
// the headline economy metric of the incremental layer.
func (s Stats) ReevalFraction() float64 {
	if s.StagesTotal == 0 {
		return 0
	}
	return float64(s.StagesEvaluated) / float64(s.StagesTotal)
}

// TimingGraph is retained per-netlist analysis state. Methods are not safe
// for concurrent use — callers (the service's sessions) serialize access
// per graph; distinct graphs are independent.
type TimingGraph struct {
	nl      *sta.Netlist
	models  map[string]*csm.Model
	opt     sta.Options // fully resolved at build (Dt, Horizon pinned)
	vdd     float64
	workers int

	eval       EvalFunc
	customEval bool               // a backend hook is installed (relaxes SwapCell's CSM-model demand)
	live       func(idx int) bool // stages that may read live inputs (nil: none)
	modelFor   func(string) (*csm.Model, error)
	evalHist   *obs.Histogram

	instIdx map[string]int  // instance name -> index
	driver  map[string]int  // net -> driving instance index
	primary map[string]bool // net -> declared primary input
	nets    map[string]bool // every net of the netlist

	waves     map[string]wave.Waveform // retained per-net waveforms
	lastEval  []stageInputs            // per-stage input record at last eval (nil .in = never)
	switching []int                    // per-stage switching-input count at last eval
	loadGen   map[string]uint64        // per-net load generation (bumped by edits)
	loads     map[string]csm.Load      // cached stage loads by output net
	dirty     map[int]bool             // stages awaiting re-evaluation

	pendingChanged map[string]bool // nets replaced by edits since last Propagate
	edits          int64           // edits applied over the graph's lifetime

	stageEvals atomic.Int64

	// Propagate's scratch, kept across calls: per-stage schedule state
	// (cleared at the end of every call), the stage levels, and the
	// per-stage input maps handed to the evaluator.
	tasks []*task
	level []int32
	maps  []map[string]wave.Waveform
}

// Build constructs the retained graph: levelization and model validation
// happen here (in the same order as the one-shot path, so error behavior
// matches), every stage starts dirty, and the first Propagate performs
// the full cold analysis. Dt and Horizon are resolved once at build and
// pinned for the graph's lifetime — later SetArrival edits do not re-derive
// the window.
func Build(nl *sta.Netlist, models map[string]*csm.Model, primary map[string]wave.Waveform, opt sta.Options, cfg Config) (*TimingGraph, error) {
	if _, err := nl.Levels(); err != nil {
		return nil, err
	}
	vdd, opt, err := sta.Setup(models, primary, opt)
	if err != nil {
		// A backend hook can run without any CSM model as long as it
		// brings its own rail voltage (the table-only NLDM path).
		if len(models) == 0 && cfg.Eval != nil && cfg.Vdd > 0 {
			vdd, opt, err = cfg.Vdd, sta.ResolveOptions(primary, opt), nil
		} else {
			return nil, err
		}
	}
	if !cfg.ShareNetlist {
		nl = nl.Clone()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	g := &TimingGraph{
		nl:             nl,
		models:         make(map[string]*csm.Model, len(models)),
		opt:            opt,
		vdd:            vdd,
		workers:        workers,
		modelFor:       cfg.ModelFor,
		instIdx:        make(map[string]int, len(nl.Instances)),
		driver:         make(map[string]int, len(nl.Instances)),
		primary:        make(map[string]bool, len(nl.PrimaryIn)),
		nets:           map[string]bool{},
		waves:          make(map[string]wave.Waveform, len(primary)+len(nl.Instances)),
		lastEval:       make([]stageInputs, len(nl.Instances)),
		switching:      make([]int, len(nl.Instances)),
		loadGen:        map[string]uint64{},
		loads:          make(map[string]csm.Load, len(nl.Instances)),
		dirty:          make(map[int]bool, len(nl.Instances)),
		pendingChanged: map[string]bool{},
	}
	g.setEval(cfg.Eval, cfg.live)
	g.evalHist = cfg.EvalHist
	for t, m := range models {
		g.models[t] = m
	}
	for net, w := range primary {
		g.waves[net] = w
	}
	for _, net := range nl.PrimaryIn {
		g.primary[net] = true
		g.nets[net] = true
	}
	for i, inst := range nl.Instances {
		g.instIdx[inst.Name] = i
		g.driver[inst.Output] = i
		g.nets[inst.Output] = true
		for _, net := range inst.Inputs {
			g.nets[net] = true
		}
		g.dirty[i] = true
	}
	return g, nil
}

// Netlist returns the graph's (private, edited-in-place) netlist. Treat it
// as read-only; mutate only through the edit API.
func (g *TimingGraph) Netlist() *sta.Netlist { return g.nl }

// Options returns the resolved analysis options the graph was built with.
func (g *TimingGraph) Options() sta.Options { return g.opt }

// Vdd returns the supply voltage of the model set.
func (g *TimingGraph) Vdd() float64 { return g.vdd }

// Edits reports the number of edits applied over the graph's lifetime.
func (g *TimingGraph) Edits() int64 { return g.edits }

// StageEvals reports cumulative stage simulations (the hot-path op count).
func (g *TimingGraph) StageEvals() int64 { return g.stageEvals.Load() }

// NetCount reports the number of nets carrying retained waveforms
// (primary inputs plus every evaluated stage output) — the size a full
// Report would have, without materializing one.
func (g *TimingGraph) NetCount() int { return len(g.waves) }

// Models returns a copy of the graph's model set (including any models
// SwapCell characterized on demand) — what a cold re-analysis of the
// edited netlist needs to reproduce the retained state.
func (g *TimingGraph) Models() map[string]*csm.Model {
	out := make(map[string]*csm.Model, len(g.models))
	for t, m := range g.models {
		out[t] = m
	}
	return out
}

// Report materializes the full retained state as a standard sta.Report —
// bit-identical to what the one-shot path produces for the same (edited)
// netlist once the dirty set is empty.
func (g *TimingGraph) Report() *sta.Report {
	return sta.BuildReport(g.vdd, g.waves, g.misInstances())
}

// misInstances rebuilds the MIS list from the retained per-stage switching
// counts (BuildReport sorts it).
func (g *TimingGraph) misInstances() []string {
	var mis []string
	for i, sw := range g.switching {
		if sw >= 2 {
			mis = append(mis, g.nl.Instances[i].Name)
		}
	}
	return mis
}

// stageInputs is the retained record of what a stage was last evaluated
// against: its cell type, the load generation of its output net, and
// aliases of the exact input waveform slices (in instance pin order).
// Waveforms are immutable, so an alias pins the precise bits — equality
// against the current inputs is *exact* (waveEqual, with an O(1)
// same-slice fast path for untouched nets), never a hash comparison, so
// the input cutoff can only ever skip provably-unchanged work.
type stageInputs struct {
	typ     string
	loadGen uint64
	in      []wave.Waveform
}

// loadFor returns the cached stage load on net, rebuilding it after an
// edit bumped the net's load generation. Not safe concurrently: only
// Propagate's scheduling goroutine calls it, before starting a stage.
func (g *TimingGraph) loadFor(net string) csm.Load {
	if l, ok := g.loads[net]; ok {
		return l
	}
	l := sta.StageLoad(g.nl, g.models, g.nl.Fanouts(), net)
	g.loads[net] = l
	return l
}

// waveEqual compares two waveforms sample-by-sample at the bit level
// (Float64bits, so it is total and NaN-safe) — the exactness both
// cutoffs need to preserve the incremental-equals-cold invariant.
// Waveforms are immutable, so two headers over the same backing arrays
// are equal without scanning — the O(1) fast path that makes the input
// cutoff nearly free for untouched nets (their retained alias IS the
// current wave).
func waveEqual(a, b wave.Waveform) bool {
	if len(a.T) != len(b.T) || len(a.V) != len(b.V) {
		return false
	}
	if sameSlices(a, b) {
		return true
	}
	for i := range a.T {
		if !sameSample(a, b, i) {
			return false
		}
	}
	return true
}

// sameSlices reports whether two waveforms of equal length share their
// backing arrays.
func sameSlices(a, b wave.Waveform) bool {
	return len(a.T) == len(b.T) && len(a.V) == len(b.V) &&
		len(a.T) > 0 && &a.T[0] == &b.T[0] && len(a.V) > 0 && &a.V[0] == &b.V[0]
}

// sameSample reports whether sample i of a and b has the same bits.
func sameSample(a, b wave.Waveform, i int) bool {
	return math.Float64bits(a.T[i]) == math.Float64bits(b.T[i]) &&
		math.Float64bits(a.V[i]) == math.Float64bits(b.V[i])
}
