// Package experiments regenerates every figure of the paper's evaluation
// (§4, Figs. 3–5 and 9–12) plus the ablations and applications indexed in
// DESIGN.md. Each experiment is a pure function of a Session, returning a
// Renderable whose text output contains the same series the paper plots.
package experiments

import (
	"fmt"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/units"
)

// Config scopes an experiment session.
type Config struct {
	Tech    cells.Tech
	CharCfg csm.Config // characterization fidelity for all models
	Dt      float64    // transient step for both reference and model runs
	Quick   bool       // reduced sweep densities (tests, benches)

	// Workers is the engine worker-pool width for level-parallel timing
	// analyses (0 = GOMAXPROCS, 1 = serial). Results are bit-identical
	// either way; this only trades wall time.
	Workers int
	// CacheDir, when set, spills characterized models (binary artifact
	// plus JSON) under this directory and reloads them across sessions.
	CacheDir string
}

// Default returns full-fidelity settings (used by cmd/mcsm-bench).
func Default() Config {
	return Config{
		Tech:    cells.Default130(),
		CharCfg: csm.DefaultConfig(),
		Dt:      1 * units.PS,
	}
}

// Quick returns reduced settings for tests and benchmarks: coarser
// characterization and sparser sweeps, same experiment structure.
func Quick() Config {
	return Config{
		Tech:    cells.Default130(),
		CharCfg: csm.FastConfig(),
		Dt:      1 * units.PS,
		Quick:   true,
	}
}

// Session carries the configuration and the shared evaluation engine: all
// characterizations go through one engine.ModelCache (so the expensive
// SPICE-backed sweeps are shared — and deduplicated under concurrency —
// across experiments), and timing analyses run on its level-parallel
// scheduler.
type Session struct {
	Cfg Config
	eng *engine.Engine
}

// NewSession creates a session.
func NewSession(cfg Config) *Session {
	return &Session{Cfg: cfg, eng: engine.New(cfg.Workers, engine.NewSpillCache(cfg.CacheDir))}
}

// Engine returns the session's evaluation engine (scheduler + cache).
func (s *Session) Engine() *engine.Engine { return s.eng }

// CacheStats snapshots the session's characterization-cache counters.
func (s *Session) CacheStats() engine.CacheStats { return s.eng.Cache().Stats() }

// Model characterizes (or returns the cached) model for a catalog cell.
func (s *Session) Model(cell string, kind csm.Kind) (*csm.Model, error) {
	return s.modelWith(cell, kind, s.Cfg.CharCfg)
}

// ModelWith characterizes with an explicit configuration (ablations).
// Results are cached by the full (tech, cell, kind, cfg) identity.
func (s *Session) ModelWith(cell string, kind csm.Kind, cfg csm.Config) (*csm.Model, error) {
	return s.modelWith(cell, kind, cfg)
}

func (s *Session) modelWith(cell string, kind csm.Kind, cfg csm.Config) (*csm.Model, error) {
	spec, err := cells.Get(cell)
	if err != nil {
		return nil, err
	}
	return s.eng.Cache().Get(s.Cfg.Tech, spec, kind, cfg)
}

// Renderable is anything an experiment can return for display.
type Renderable interface {
	Render() string
}

// Experiment couples an identifier from DESIGN.md's per-experiment index
// with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Session) (Renderable, error)
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig3", Title: "Fig. 3 — internal node voltage under two input histories", Run: runFig3},
		{ID: "fig4", Title: "Fig. 4 — output waveforms for '11'→'00' under two histories", Run: runFig4},
		{ID: "fig5", Title: "Fig. 5 — history delay difference vs output load (FO1..FO8)", Run: runFig5},
		{ID: "fig9", Title: "Fig. 9 — MCSM vs SPICE, fast/slow cases (4% vs 22% claim)", Run: runFig9},
		{ID: "fig10", Title: "Fig. 10 — glitch modeling accuracy", Run: runFig10},
		{ID: "fig11", Title: "Fig. 11 — MIS event: MCSM vs SPICE vs SIS CSM", Run: runFig11},
		{ID: "fig12", Title: "Fig. 12 — delay error vs noise injection time", Run: runFig12},
		{ID: "noiseprop", Title: "EXP-N1 — crosstalk glitch propagation vs coupling", Run: runNoiseProp},
		{ID: "variation", Title: "EXP-V1 — process-corner re-characterization (ΔVt sweep)", Run: runVariation},
		{ID: "eff", Title: "EXP-T1 — CSM vs transistor-level runtime", Run: runEfficiency},
		{ID: "abl-grid", Title: "EXP-A1 — table grid resolution ablation", Run: runAblGrid},
		{ID: "abl-caps", Title: "EXP-A2 — capacitance extraction ablation", Run: runAblCaps},
		{ID: "abl-integ", Title: "EXP-A3 — explicit Eq.4/5 vs implicit integration", Run: runAblInteg},
		{ID: "abl-select", Title: "EXP-A4 — §3.4 selective modeling threshold", Run: runAblSelective},
		{ID: "abl-nmiller", Title: "EXP-A5 — cost of the §3.2 internal-Miller simplification", Run: runAblNMiller},
		{ID: "sta", Title: "EXP-S1 — waveform STA: MIS vs SIS vs flat transistor", Run: runSTAExp},
		{ID: "sweep", Title: "EXP-S2 — MIS delay-vs-skew surfaces (batched sweep engine)", Run: runSkewSweep},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
