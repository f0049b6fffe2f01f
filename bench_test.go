package mcsm

// The benchmark harness of DESIGN.md's per-experiment index: one benchmark
// per paper figure (run them with -benchtime=1x to regenerate the series;
// the rendered tables appear with -v via b.Log) plus genuine performance
// benchmarks of the characterization and stage engines.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/cliutil"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/experiments"
	"mcsm/internal/graph"
	"mcsm/internal/netlist"
	"mcsm/internal/obs"
	"mcsm/internal/service"
	"mcsm/internal/spice"
	"mcsm/internal/sta"
	"mcsm/internal/sweep"
	"mcsm/internal/table"
	"mcsm/internal/wave"
)

var (
	benchSessOnce sync.Once
	benchSess     *experiments.Session
)

func benchSession() *experiments.Session {
	benchSessOnce.Do(func() {
		benchSess = experiments.NewSession(experiments.Quick())
	})
	return benchSess
}

// benchExperiment reruns one DESIGN.md experiment per iteration and logs
// the rendered table of the final run.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchSession()
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		out = r.Render()
	}
	b.StopTimer()
	b.Log("\n" + out)
}

// BenchmarkFig03InternalNode regenerates Fig. 3 (EXP-F3).
func BenchmarkFig03InternalNode(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig04OutputHistories regenerates Fig. 4 (EXP-F4).
func BenchmarkFig04OutputHistories(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig05DelayDifference regenerates Fig. 5 (EXP-F5).
func BenchmarkFig05DelayDifference(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig09MCSMAccuracy regenerates Fig. 9 (EXP-F9).
func BenchmarkFig09MCSMAccuracy(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Glitch regenerates Fig. 10 (EXP-F10).
func BenchmarkFig10Glitch(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11MISvsSIS regenerates Fig. 11 (EXP-F11).
func BenchmarkFig11MISvsSIS(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12NoiseSweep regenerates Fig. 12 (EXP-F12).
func BenchmarkFig12NoiseSweep(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkEfficiencyCSMvsSPICE regenerates EXP-T1.
func BenchmarkEfficiencyCSMvsSPICE(b *testing.B) { benchExperiment(b, "eff") }

// BenchmarkAblationGridResolution regenerates EXP-A1.
func BenchmarkAblationGridResolution(b *testing.B) { benchExperiment(b, "abl-grid") }

// BenchmarkAblationSlopeAveraging regenerates EXP-A2.
func BenchmarkAblationSlopeAveraging(b *testing.B) { benchExperiment(b, "abl-caps") }

// BenchmarkAblationIntegrator regenerates EXP-A3.
func BenchmarkAblationIntegrator(b *testing.B) { benchExperiment(b, "abl-integ") }

// BenchmarkAblationSelective regenerates EXP-A4.
func BenchmarkAblationSelective(b *testing.B) { benchExperiment(b, "abl-select") }

// BenchmarkAblationInternalMiller regenerates EXP-A5.
func BenchmarkAblationInternalMiller(b *testing.B) { benchExperiment(b, "abl-nmiller") }

// BenchmarkSTAPathDelay regenerates EXP-S1.
func BenchmarkSTAPathDelay(b *testing.B) { benchExperiment(b, "sta") }

// ---------------------------------------------------------------------------
// Engine performance benchmarks (true per-op measurements).

// benchModel returns the shared quick-mode NOR2 MCSM.
func benchModel(b *testing.B) *csm.Model {
	b.Helper()
	m, err := benchSession().Model("NOR2", csm.KindMCSM)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStageTransistorLevel times one transistor-level history
// transient — the cost a CSM flow avoids per stage evaluation.
func BenchmarkStageTransistorLevel(b *testing.B) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _, _ := cells.NOR2HistoryScenario(tech, 2, 2, tm)
		if _, err := eng.Run(0, tm.TEnd, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageMCSMImplicit times the implicit CSM stage solve.
func BenchmarkStageMCSMImplicit(b *testing.B) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	m := benchModel(b)
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 2, tm)
	cl := cells.FanoutCap(tech, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csm.SimulateStage(m, []wave.Waveform{wa, wb}, csm.CapLoad(cl), 0, tm.TEnd, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageMCSMExplicit times the paper's Eq. 4/5 explicit update.
func BenchmarkStageMCSMExplicit(b *testing.B) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	m := benchModel(b)
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 2, tm)
	cl := cells.FanoutCap(tech, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csm.SimulateExplicit(m, []wave.Waveform{wa, wb}, cl, 0, tm.TEnd, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeNOR2 times a full FastConfig MCSM characterization.
func BenchmarkCharacterizeNOR2(b *testing.B) {
	tech := cells.Default130()
	spec, err := cells.Get("NOR2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csm.Characterize(tech, spec, csm.KindMCSM, csm.FastConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeNAND2Cold times a cold exact-path MCSM NAND2
// characterization at the golden-pinned CoarseConfig, with allocation
// reporting — the workload of this repo's zero-alloc inner-loop work
// (EXPERIMENTS.md "Cold characterization").
func BenchmarkCharacterizeNAND2Cold(b *testing.B) {
	tech := cells.Default130()
	spec, err := cells.Get("NAND2")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csm.Characterize(tech, spec, csm.KindMCSM, csm.CoarseConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeNAND2Fast is the same workload through the
// Config.Fast solver path (chord Newton, warm-started DC, adaptive ramps).
func BenchmarkCharacterizeNAND2Fast(b *testing.B) {
	tech := cells.Default130()
	spec, err := cells.Get("NAND2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := csm.CoarseConfig()
	cfg.Fast = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csm.Characterize(tech, spec, csm.KindMCSM, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableInterp4D times one self-contained 4-D lookup (At: seek
// plus value), the path of NLDM tables and the explicit integrator.
func BenchmarkTableInterp4D(b *testing.B) {
	m := benchModel(b)
	coords := []float64{0.3, 0.9, 1.1, 0.6}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Io.At(coords...)
	}
	_ = sink
}

// BenchmarkTableGrad4D times lookup-with-gradient as the Newton assembly
// does it: one Seek into a reused cursor, then ValueGrad into a reused
// buffer.
func BenchmarkTableGrad4D(b *testing.B) {
	m := benchModel(b)
	coords := []float64{0.3, 0.9, 1.1, 0.6}
	var cur table.Cursor
	grad := make([]float64, len(coords))
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		m.Io.Seek(&cur, coords)
		sink += m.Io.ValueGrad(&cur, grad) + grad[0]
	}
	_ = sink
}

// BenchmarkSpiceDCInverter times a DC operating point of an inverter.
func BenchmarkSpiceDCInverter(b *testing.B) {
	tech := cells.Default130()
	c := spice.NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("VDD", vdd, spice.Ground, spice.DC(tech.Vdd))
	c.AddVSource("VIN", in, spice.Ground, spice.DC(0.6))
	cells.Inverter(c, tech, "X", []spice.Node{in}, out, vdd, 1)
	eng := spice.NewEngine(c, spice.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DCAt(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUSolve16 times the dense solver at a representative size.
func BenchmarkLUSolve16(b *testing.B) {
	const n = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := spice.NewSystem(n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				v := 1.0 / float64(r+c+1)
				if r == c {
					v += float64(n)
				}
				sys.AddA(r, c, v)
			}
			sys.AddB(r, float64(r))
		}
		b.StartTimer()
		if _, err := sys.SolveWith(spice.NewSolveWorkspace(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveformRMSE times the Eq. 6 metric over a dense comparison.
func BenchmarkWaveformRMSE(b *testing.B) {
	w1 := wave.SaturatedRamp(0, 1.2, 1e-9, 100e-12, 4e-9)
	w2 := wave.SaturatedRamp(0, 1.2, 1.01e-9, 110e-12, 4e-9)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += wave.RMSE(w1, w2, 0, 4e-9, 2000)
	}
	_ = sink
}

// BenchmarkNoisePropagation regenerates EXP-N1.
func BenchmarkNoisePropagation(b *testing.B) { benchExperiment(b, "noiseprop") }

// BenchmarkStageMCSMAdaptive times the adaptive CSM stage solve.
func BenchmarkStageMCSMAdaptive(b *testing.B) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	m := benchModel(b)
	wa, wb := cells.NOR2HistoryInputs(tech.Vdd, 2, tm)
	cl := cells.FanoutCap(tech, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csm.SimulateStageAdaptive(m, []wave.Waveform{wa, wb}, csm.CapLoad(cl), 0, tm.TEnd, spice.DefaultAdaptive()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariationCorners regenerates EXP-V1.
func BenchmarkVariationCorners(b *testing.B) { benchExperiment(b, "variation") }

// ---------------------------------------------------------------------------
// Level-parallel engine benchmarks (internal/engine): full c17 analyses
// through the scheduler, serial vs worker pool. The two are bit-identical
// by construction (and by internal/engine's tests); the pair measures the
// wall-time win of level parallelism on the repo's hot path.

func benchAnalyzeC17(b *testing.B, workers int) {
	b.Helper()
	nl, err := sta.ParseNetlist(strings.NewReader(sta.C17Netlist))
	if err != nil {
		b.Fatal(err)
	}
	m, err := benchSession().Model("NAND2", csm.KindMCSM)
	if err != nil {
		b.Fatal(err)
	}
	models := map[string]*csm.Model{"NAND2": m}
	horizon := 4e-9
	primary := sta.C17Stimulus(cells.Default130().Vdd, horizon)
	eng := engine.New(workers, nil)
	opt := sta.Options{Horizon: horizon}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(nl, models, primary, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.StageEvals())/b.Elapsed().Seconds(), "stage-evals/s")
}

// BenchmarkStageEngineC17Serial times a full c17 analysis with one worker.
func BenchmarkStageEngineC17Serial(b *testing.B) { benchAnalyzeC17(b, 1) }

// BenchmarkStageEngineC17Parallel times the same analysis with a
// GOMAXPROCS-wide worker pool per topological level.
func BenchmarkStageEngineC17Parallel(b *testing.B) { benchAnalyzeC17(b, runtime.GOMAXPROCS(0)) }

// ---------------------------------------------------------------------------
// Frontend benchmarks (internal/netlist): the benchmark-corpus path. The
// c17 pair above stays the historical perf trajectory; this pair puts a
// couple hundred mapped stages through the scheduler, so level widths
// finally exceed the worker pool (c17's levels are only two wide).

// benchGenCircuit maps the shared generated workload: 64 generic gates at
// the ISCAS-85 depth profile, technology-mapped to a couple hundred cells.
func benchGenCircuit(b *testing.B) (*sta.Netlist, int) {
	b.Helper()
	circ, err := netlist.Generate(64, 10, 4, 17)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := netlist.Map(circ)
	if err != nil {
		b.Fatal(err)
	}
	levels, err := nl.Levels()
	if err != nil {
		b.Fatal(err)
	}
	return nl, len(levels)
}

func benchAnalyzeGen(b *testing.B, workers int) {
	b.Helper()
	nl, levels := benchGenCircuit(b)
	models, err := benchSession().Engine().ModelsFor(cells.Default130(), nl, benchSession().Cfg.CharCfg)
	if err != nil {
		b.Fatal(err)
	}
	horizon := netlist.Horizon(levels, 80e-12)
	primary := netlist.Stimulus(nl.PrimaryIn, cells.Default130().Vdd, 80e-12, horizon)
	eng := engine.New(workers, nil)
	// A coarse step keeps one iteration in benchmark territory; serial
	// and parallel use the same step, so the ratio stands.
	opt := sta.Options{Horizon: horizon, Dt: 4e-12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(nl, models, primary, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.StageEvals())/b.Elapsed().Seconds(), "stage-evals/s")
}

// BenchmarkStageEngineGen64Serial times a mapped 64-generic-gate synthetic
// circuit (~200 cells) with one worker.
func BenchmarkStageEngineGen64Serial(b *testing.B) { benchAnalyzeGen(b, 1) }

// BenchmarkStageEngineGen64Parallel times the same analysis with a
// GOMAXPROCS-wide worker pool per topological level.
func BenchmarkStageEngineGen64Parallel(b *testing.B) { benchAnalyzeGen(b, runtime.GOMAXPROCS(0)) }

// ---------------------------------------------------------------------------
// Sweep benchmarks (internal/sweep): the batched MIS scenario engine on
// its compact probe grid (one slew/load, five skews, both cells), serial
// vs worker pool. Surfaces are bit-identical either way (enforced by
// internal/sweep's tests); the pair measures the wall-time win of point
// parallelism.

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	sess := benchSession()
	cfg := sweep.Config{
		Tech:    cells.Default130(),
		CharCfg: sess.Cfg.CharCfg,
		Dt:      4e-12,
	}
	grid := sweep.ProbeGrid()
	r := sweep.New(engine.New(workers, sess.Engine().Cache()), cfg)
	// Characterize outside the timed region (see runSweepProbe).
	warmGrid := grid
	warmGrid.Skews = grid.Skews[:1]
	if _, err := r.SweepAll(nil, warmGrid); err != nil {
		b.Fatal(err)
	}
	warmEvals := r.PointEvals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SweepAll(nil, grid); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.PointEvals()-warmEvals)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepProbeSerial times the compact skew sweep with one worker.
func BenchmarkSweepProbeSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepProbeParallel times the same sweep with a GOMAXPROCS-wide
// worker pool.
func BenchmarkSweepProbeParallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSkewSweepExperiment regenerates EXP-S2.
func BenchmarkSkewSweepExperiment(b *testing.B) { benchExperiment(b, "sweep") }

// ---------------------------------------------------------------------------
// Service benchmarks (internal/service): the HTTP serving path on the c17
// probe workload — request decode, netlist-LRU hit, level-parallel
// analysis, canonical encode. The sequential benchmark is the per-request
// cost; the concurrent one exercises request coalescing, so its req/s is
// what identical-load clients actually observe.

// benchC17Request is the served c17 analysis of the service benchmarks.
var benchC17Request = service.STARequest{
	Name: "c17", Netlist: sta.C17Netlist, Format: "net", Stimulus: "c17",
	Config: "fast", Dt: "1p",
}

// benchServer builds an in-process service with cfg on the shared session
// cache with models and the netlist LRU pre-warmed.
func benchServer(b *testing.B, cfg service.Config) (*httptest.Server, []byte) {
	b.Helper()
	srv := service.NewWithEngine(cfg, engine.New(0, benchSession().Engine().Cache()))
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() { ts.Close(); srv.Close() })
	req, err := json.Marshal(benchC17Request)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := benchServePost(ts, "/v1/sta", req); err != nil { // warm-up
		b.Fatal(err)
	}
	return ts, req
}

func benchServePost(ts *httptest.Server, path string, req []byte) ([]byte, error) {
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// BenchmarkServeSTAC17 times one full served analysis per iteration.
func BenchmarkServeSTAC17(b *testing.B) {
	ts, req := benchServer(b, service.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchServePost(ts, "/v1/sta", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSTAC17Concurrent fires identical requests from parallel
// clients; coalescing collapses overlapping work, so per-op time drops
// well below a full analysis.
func BenchmarkServeSTAC17Concurrent(b *testing.B) {
	ts, req := benchServer(b, service.Config{})
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := benchServePost(ts, "/v1/sta", req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeBatchC17 compares eight identical c17 analyses posted one
// by one with the same eight items posted as one /v1/sta:batch request.
// The server keeps no warm replies (GraphCap -1), so every sequential post
// recomputes, while the batch dedups its items onto one computation.
func BenchmarkServeBatchC17(b *testing.B) {
	const n = 8
	ts, req := benchServer(b, service.Config{GraphCap: -1})
	items := make([]service.STARequest, n)
	for i := range items {
		items[i] = benchC17Request
	}
	batch, err := json.Marshal(service.BatchSTARequest{Items: items})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < n; k++ {
				if _, err := benchServePost(ts, "/v1/sta", req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchServePost(ts, "/v1/sta:batch", batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTechMapC432 times the frontend itself: parsing and technology-
// mapping the bundled c432-class corpus circuit (no simulation).
func BenchmarkTechMapC432(b *testing.B) {
	data, err := os.ReadFile("internal/netlist/testdata/c432.bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circ, err := netlist.ParseBench(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netlist.Map(circ); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Backend and tracing benchmarks on the mapped c432 corpus circuit (552
// cells, corpus stimulus, MIS mode, 4 ps step) with warm caches: the CSM
// models and NLDM tables are characterized before any timed loop.

// c432Bench is the warm c432 analysis both benchmarks below time.
type c432Bench struct {
	eng     *engine.Engine
	spec    engine.BackendSpec // the CSM backend
	nl      *sta.Netlist
	primary map[string]wave.Waveform
	opt     sta.Options
}

var (
	benchC432Once sync.Once
	benchC432     *c432Bench
	benchC432Err  error
)

func benchC432Setup(b *testing.B) *c432Bench {
	b.Helper()
	benchC432Once.Do(func() {
		wl, err := cliutil.LoadWorkload("internal/netlist/testdata/c432.bench", "bench")
		if err != nil {
			benchC432Err = err
			return
		}
		tech := cells.Default130()
		horizon := wl.Horizon(0, 4e-9, cliutil.DefaultSlew)
		c := &c432Bench{
			eng:     engine.New(0, benchSession().Engine().Cache()),
			spec:    engine.BackendSpec{Kind: engine.BackendCSM, Tech: tech, CSM: benchSession().Cfg.CharCfg},
			nl:      wl.NL,
			primary: wl.Stimulus(tech.Vdd, cliutil.DefaultSlew, horizon),
			opt:     sta.Options{Mode: sta.ModeMIS, Horizon: horizon, Dt: 4e-12},
		}
		if _, err := c.eng.ModelsFor(tech, c.nl, c.spec.CSM); err != nil {
			benchC432Err = err
			return
		}
		// One hybrid analysis characterizes the NLDM tables.
		hybrid := c.spec
		hybrid.Kind = engine.BackendHybrid
		if _, benchC432Err = c.eng.AnalyzeBackend(context.Background(), hybrid, c.nl, c.primary, c.opt); benchC432Err == nil {
			benchC432 = c
		}
	})
	if benchC432Err != nil {
		b.Fatal(benchC432Err)
	}
	return benchC432
}

// BenchmarkBackendC432 times one full-CSM analysis of c432 against one
// hybrid analysis (NLDM pass, slack classification, CSM refinement of
// the near-critical stages at the default margin).
func BenchmarkBackendC432(b *testing.B) {
	c := benchC432Setup(b)
	for _, kind := range []engine.BackendKind{engine.BackendCSM, engine.BackendHybrid} {
		b.Run(string(kind), func(b *testing.B) {
			spec := c.spec
			spec.Kind = kind
			var res *engine.BackendResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = c.eng.AnalyzeBackend(context.Background(), spec, c.nl, c.primary, c.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Plan.CSMStages), "csm-stages")
		})
	}
}

// BenchmarkTraceC432 measures what tracing costs a full-CSM c432
// analysis. baseline is the analysis without the observability layer:
// the plan, graph.Build and Propagate under a plain context, with no
// stage histogram. untraced is AnalyzeBackend with tracing off (nil-span
// checks plus the always-on stage histogram), the path every production
// request pays; traced runs it under a live trace.
func BenchmarkTraceC432(b *testing.B) {
	c := benchC432Setup(b)
	ctx := context.Background()
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := c.eng.PlanBackend(ctx, c.spec, c.nl, c.primary, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			gcfg := plan.GraphConfig(c.eng.Workers(), nil)
			gcfg.ShareNetlist = true
			g, err := graph.Build(c.nl, plan.Models, c.primary, c.opt, gcfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.Propagate(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.AnalyzeBackend(ctx, c.spec, c.nl, c.primary, c.opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		var spans int
		for i := 0; i < b.N; i++ {
			tr := obs.New("bench")
			if _, err := c.eng.AnalyzeBackend(obs.WithSpan(ctx, tr.Root()), c.spec, c.nl, c.primary, c.opt); err != nil {
				b.Fatal(err)
			}
			spans = tr.Finish().CountSpans()
		}
		b.ReportMetric(float64(spans), "spans")
	})
}
