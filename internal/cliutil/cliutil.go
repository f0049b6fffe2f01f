// Package cliutil consolidates the flag plumbing the entry points share:
// netlist/workload loading with format resolution, SI time parsing,
// generator-spec parsing, the -parallel/-cache engine flags, named
// characterization profiles, and the -arrivals stimulus overlay. Before
// this package, cmd/mcsm-sta and cmd/mcsm-sweep each carried private
// copies; cmd/mcsm-serve and cmd/mcsm-bench reuse the same plumbing for
// their config surfaces, so a parsing fix lands in every binary at once.
//
// Parsing here is bit-exactness-preserving: SI suffixes are applied
// textually (via units.ParseSI), so "2.6n" yields the correctly-rounded
// float64 of 2.6e-9 — the same bits a Go literal or a JSON number gives —
// which is what lets the service's golden contract extend to values that
// arrived as flags.
package cliutil

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/liberty"
	"mcsm/internal/mc"
	"mcsm/internal/netlist"
	"mcsm/internal/sta"
	"mcsm/internal/units"
	"mcsm/internal/wave"
)

// DefaultSlew is the canonical primary-input transition time shared by the
// CLIs, the corpus stimulus, and the service defaults.
const DefaultSlew = 80e-12

// ParseSI reads a float with an optional engineering suffix (f/p/n/u),
// applied textually so suffixed values get the correctly-rounded float.
func ParseSI(s string) (float64, error) { return units.ParseSI(s) }

// ParseDt resolves an optional -dt style spec: empty selects the engine
// default (0 → 1 ps downstream), anything else must parse as a positive
// SI time.
func ParseDt(spec string) (float64, error) {
	if spec == "" {
		return 0, nil
	}
	dt, err := ParseSI(spec)
	if err != nil {
		return 0, err
	}
	if dt <= 0 {
		return 0, fmt.Errorf("dt must be positive, got %q", spec)
	}
	return dt, nil
}

// EngineFlags bundles the engine configuration every analysis binary
// exposes: worker-pool width and the model spill directory.
type EngineFlags struct {
	Parallel int
	CacheDir string
}

// RegisterEngineFlags installs -parallel and -cache on fs (use
// flag.CommandLine in main) and returns the destination struct.
func RegisterEngineFlags(fs *flag.FlagSet) *EngineFlags {
	ef := &EngineFlags{}
	fs.IntVar(&ef.Parallel, "parallel", 0, "worker-pool width for level-parallel analysis (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&ef.CacheDir, "cache", "", "model cache directory: spill characterized models (binary .mcsm artifact plus JSON) and reload them on later runs")
	return ef
}

// NewEngine builds the engine the flags describe.
func (ef *EngineFlags) NewEngine() *engine.Engine {
	return engine.New(ef.Parallel, engine.NewSpillCache(ef.CacheDir))
}

// BackendFlags bundles the delay-backend configuration of the analysis
// binaries: the calculator, the hybrid criticality margin, and an
// optional Liberty file preloading NLDM tables.
type BackendFlags struct {
	Backend string
	Margin  string
	Lib     string
}

// RegisterBackendFlags installs -backend, -margin, and -lib on fs.
func RegisterBackendFlags(fs *flag.FlagSet) *BackendFlags {
	bf := &BackendFlags{}
	fs.StringVar(&bf.Backend, "backend", "csm", "delay backend: csm (waveform models), nldm (table lookup), or hybrid (NLDM everywhere, CSM for near-critical stages)")
	fs.StringVar(&bf.Margin, "margin", "", "hybrid criticality threshold as an SI time, e.g. 150p (default: 10% of the NLDM worst arrival)")
	fs.StringVar(&bf.Lib, "lib", "", "Liberty file preloading NLDM tables for the nldm/hybrid backends (cells not in the file characterize on demand)")
	return bf
}

// Spec resolves the flags into an engine backend spec, loading the
// Liberty tables when -lib is set.
func (bf *BackendFlags) Spec(tech cells.Tech, cfg csm.Config) (engine.BackendSpec, error) {
	kind, err := engine.ParseBackendKind(bf.Backend)
	if err != nil {
		return engine.BackendSpec{}, err
	}
	spec := engine.BackendSpec{Kind: kind, Tech: tech, CSM: cfg}
	if bf.Margin != "" {
		if kind != engine.BackendHybrid {
			return spec, fmt.Errorf("-margin is only valid with -backend hybrid")
		}
		if spec.Margin, err = ParseSI(bf.Margin); err != nil {
			return spec, fmt.Errorf("margin: %w", err)
		}
		if spec.Margin <= 0 {
			return spec, fmt.Errorf("margin must be positive")
		}
	}
	if bf.Lib != "" {
		if kind == engine.BackendCSM {
			return spec, fmt.Errorf("-lib is only used by the nldm and hybrid backends")
		}
		f, err := os.Open(bf.Lib)
		if err != nil {
			return spec, err
		}
		defer f.Close()
		plib, err := liberty.Parse(f)
		if err != nil {
			return spec, err
		}
		spec.Tables = plib.NLDMLibraries()
	}
	return spec, nil
}

// CharConfig resolves a named characterization profile. The names are part
// of the service API (/v1/sta config field) as well as CLI vocabulary:
// "fast" and "default" are the csm presets, "coarse" is the golden-fixture
// config. An empty name selects fast — the historical -fast=true default
// of the CLIs.
func CharConfig(name string) (csm.Config, error) {
	switch name {
	case "", "fast":
		return csm.FastConfig(), nil
	case "default":
		return csm.DefaultConfig(), nil
	case "coarse":
		return csm.CoarseConfig(), nil
	default:
		return csm.Config{}, fmt.Errorf("unknown characterization config %q (want fast, default, or coarse)", name)
	}
}

// ResolveFormat applies a -format value, sniffing by extension in auto
// mode: ".bench" files are ISCAS-85 circuits, everything else the native
// netlist format.
func ResolveFormat(format, path string) string {
	if format != "auto" {
		return format
	}
	if strings.EqualFold(filepath.Ext(path), ".bench") {
		return "bench"
	}
	return "net"
}

// ParseGenSpec reads a generator argument gates[:depth[:fanin[:seed[:inputs]]]],
// deriving ISCAS-like defaults for the omitted trailing parts.
func ParseGenSpec(s string) (netlist.GenSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) > 5 {
		return netlist.GenSpec{}, fmt.Errorf("bad gen spec %q (want gates[:depth[:fanin[:seed[:inputs]]]])", s)
	}
	nums := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return netlist.GenSpec{}, fmt.Errorf("bad gen spec %q: %q is not an integer", s, p)
		}
		nums[i] = v
	}
	if nums[0] <= 0 {
		return netlist.GenSpec{}, fmt.Errorf("bad gen spec %q: gate count must be positive", s)
	}
	spec := netlist.ISCASSpec(int(nums[0]))
	if len(nums) > 1 {
		spec.Depth = int(nums[1])
	}
	if len(nums) > 2 {
		spec.MaxFanin = int(nums[2])
	}
	if len(nums) > 3 {
		spec.Seed = nums[3]
	}
	if len(nums) > 4 {
		spec.Inputs = int(nums[4])
	}
	return spec, nil
}

// Workload is a loaded analysis input: the evaluated sta.Netlist plus,
// for bench/gen inputs, the generic circuit it was mapped from and the
// source text (so callers can re-POST the identical workload to the
// service or dump it back out).
type Workload struct {
	Name   string           // label: file base name or generated-circuit name
	Format string           // "net" or "bench"
	Text   string           // the source text in Format
	Circ   *netlist.Circuit // generic circuit (bench/gen inputs; nil for native)
	NL     *sta.Netlist     // the netlist the engine consumes
	Mapped bool             // NL came out of the technology mapper
	Levels int              // topological depth of NL
}

// ParseWorkload builds a workload from netlist source text.
func ParseWorkload(name, format, text string) (*Workload, error) {
	w := &Workload{Name: name, Format: format, Text: text}
	var err error
	switch format {
	case "bench":
		if w.Circ, err = netlist.ParseBench(strings.NewReader(text)); err != nil {
			return nil, err
		}
		if w.NL, err = netlist.Map(w.Circ); err != nil {
			return nil, err
		}
		w.Mapped = true
	case "net":
		if w.NL, err = sta.ParseNetlist(strings.NewReader(text)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown format %q (want auto, net, or bench)", format)
	}
	levels, err := w.NL.Levels()
	if err != nil {
		return nil, err
	}
	w.Levels = len(levels)
	return w, nil
}

// LoadWorkload reads a workload from a file, resolving "auto" format by
// extension.
func LoadWorkload(path, format string) (*Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return ParseWorkload(name, ResolveFormat(format, path), string(data))
}

// GenWorkload generates a seeded synthetic circuit and presents it as a
// bench-format workload: Text is its canonical .bench form, so the same
// circuit can be dumped, re-parsed, or POSTed to the service unchanged.
func GenWorkload(spec netlist.GenSpec) (*Workload, error) {
	circ, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := circ.WriteBench(&buf); err != nil {
		return nil, err
	}
	return ParseWorkload(circ.Name, "bench", buf.String())
}

// Horizon resolves the analysis window for a workload: an explicit value
// wins; otherwise mapped circuits get the depth-scaled corpus window when
// it exceeds the base default. This is the CLI rule and the service rule —
// one implementation so the two can never disagree.
func (w *Workload) Horizon(explicit, base, slew float64) float64 {
	if explicit > 0 {
		return explicit
	}
	h := base
	if w.Mapped {
		if auto := netlist.Horizon(w.Levels, slew); auto > h {
			h = auto
		}
	}
	return h
}

// Stimulus builds the workload's default primary-input drive: the
// staggered corpus stimulus for mapped circuits, uniform rise@1ns for
// native netlists.
func (w *Workload) Stimulus(vdd, slew, horizon float64) map[string]wave.Waveform {
	if w.Mapped {
		return netlist.Stimulus(w.NL.PrimaryIn, vdd, slew, horizon)
	}
	primary := make(map[string]wave.Waveform, len(w.NL.PrimaryIn))
	for _, net := range w.NL.PrimaryIn {
		primary[net] = wave.SaturatedRamp(0, vdd, 1e-9, slew, horizon)
	}
	return primary
}

// ApplyArrivalSpec overlays "net:rise@1n,other:high" arrival overrides
// onto primary-input waveforms (rise/fall ramps, or low/high holds). out
// holds exactly the primary inputs, so a net that is not already one of
// its keys is an error: an internal net would be overwritten by its
// driver, and an unknown one would leak into the report as a phantom net.
func ApplyArrivalSpec(out map[string]wave.Waveform, vdd float64, spec string, slew, horizon float64) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad arrival %q (want net:rise@1n)", part)
		}
		if _, ok := out[kv[0]]; !ok {
			return fmt.Errorf("arrival %q: net %q is not a primary input", part, kv[0])
		}
		dirAt := strings.SplitN(kv[1], "@", 2)
		switch {
		case dirAt[0] == "low":
			out[kv[0]] = wave.Constant(0, 0, horizon)
			continue
		case dirAt[0] == "high":
			out[kv[0]] = wave.Constant(vdd, 0, horizon)
			continue
		case len(dirAt) != 2:
			return fmt.Errorf("bad arrival %q (want net:rise@1n)", part)
		}
		t, err := ParseSI(dirAt[1])
		if err != nil {
			return err
		}
		switch dirAt[0] {
		case "rise":
			out[kv[0]] = wave.SaturatedRamp(0, vdd, t, slew, horizon)
		case "fall":
			out[kv[0]] = wave.SaturatedRamp(vdd, 0, t, slew, horizon)
		default:
			return fmt.Errorf("bad direction %q", dirAt[0])
		}
	}
	return nil
}

// LoadEditScript reads and strictly validates an ECO edit script
// (graph.EditScript JSON) from a file — the -eco flag plumbing shared by
// mcsm-sta's replay mode and anything else that scripts edits.
func LoadEditScript(path string) (*graph.EditScript, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return graph.ParseEditScript(data)
}

// LoadMCSpec reads and strictly validates a Monte-Carlo spec (mc.Spec
// JSON) from a file — the -mc flag plumbing shared by mcsm-sta's
// statistical mode and anything else that scripts MC runs.
func LoadMCSpec(path string) (*mc.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return mc.ParseSpec(data)
}

// BuildGraph constructs the retained incremental timing graph for a
// loaded workload on an engine: models come from the engine's shared
// cache (with characterize-on-demand for cell types that SwapCell edits
// introduce), and the initial full propagation runs before returning, so
// the caller starts from converged state.
func BuildGraph(eng *engine.Engine, tech cells.Tech, wl *Workload, cfg csm.Config, primary map[string]wave.Waveform, opt sta.Options) (*graph.TimingGraph, error) {
	g, _, err := BuildGraphCtx(context.Background(), eng, tech, wl, cfg, primary, opt)
	return g, err
}

// BuildGraphCtx is BuildGraph with cooperative cancellation for the
// initial propagation and its stats exposed: BuildBackendGraphCtx under
// the csm backend.
func BuildGraphCtx(ctx context.Context, eng *engine.Engine, tech cells.Tech, wl *Workload, cfg csm.Config, primary map[string]wave.Waveform, opt sta.Options) (*graph.TimingGraph, graph.Stats, error) {
	g, _, stats, err := BuildBackendGraphCtx(ctx, eng, tech, wl,
		engine.BackendSpec{Kind: engine.BackendCSM, Tech: tech, CSM: cfg}, primary, opt)
	return g, stats, err
}

// BuildBackendGraphCtx builds and propagates the retained timing graph of
// a workload under any delay backend (engine.BackendGraph) — the one
// graph-construction path the CLIs and the service's session endpoint
// share, so model resolution cannot silently diverge between them. The
// graph edits a private clone of the netlist. Its eval hook retains the
// plan, so ECO edits keep the session's backend; cell types SwapCell
// introduces later characterize on demand — CSM through the engine's
// model cache, NLDM through the evaluator fallback inside the plan.
func BuildBackendGraphCtx(ctx context.Context, eng *engine.Engine, tech cells.Tech, wl *Workload, spec engine.BackendSpec, primary map[string]wave.Waveform, opt sta.Options) (*graph.TimingGraph, *engine.BackendPlan, graph.Stats, error) {
	plan, g, stats, err := eng.BackendGraph(ctx, spec, wl.NL, primary, opt, graph.Config{
		Workers: eng.Workers(),
		ModelFor: func(cellType string) (*csm.Model, error) {
			cs, err := cells.Get(cellType)
			if err != nil {
				return nil, err
			}
			return eng.Cache().Get(tech, cs, engine.KindFor(cs), spec.CSM)
		},
	})
	return g, plan, stats, err
}

// FmtCounts renders a cell-count map deterministically ("[INV:3 NAND2:7]").
func FmtCounts(counts map[string]int) string {
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	parts := make([]string, len(types))
	for i, t := range types {
		parts[i] = fmt.Sprintf("%s:%d", t, counts[t])
	}
	return "[" + strings.Join(parts, " ") + "]"
}
