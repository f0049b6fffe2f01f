// Command mcsm-sta runs the waveform-based timing analysis on a netlist,
// comparing MIS-aware propagation, the conventional SIS assumption, and
// (optionally) the flat transistor-level reference.
//
// Two input formats are supported (-format, default auto-detected from
// the file extension):
//
//   - "net" — the native line-based format of internal/sta:
//
//     input a b
//     output y
//     cap n1 2e-15
//     inst U1 NOR2 n1 a b
//     inst U2 INV  y  n1
//
//   - "bench" — the ISCAS-85 .bench format (INPUT(...), OUTPUT(...),
//     g = NAND(a, b)), technology-mapped onto the characterized cell
//     library by internal/netlist. See testdata under internal/netlist
//     for the bundled benchmark corpus.
//
// The netlist path is given positionally (or via -netlist):
//
//	mcsm-sta -format bench internal/netlist/testdata/c432.bench
//
// Alternatively -gen gates[:depth[:fanin[:seed[:inputs]]]] analyzes a
// seeded synthetic circuit from the internal/netlist generator (omitted
// trailing fields default to the ISCAS-85 profile); adding -dump
// file.bench writes that circuit out (the corpus stand-ins are produced
// this way) and exits.
//
// Primary inputs get saturated-ramp stimuli described by -arrivals, e.g.
// -arrivals "a:rise@1n,b:fall@1.2n". In bench/gen modes the default drive
// is the corpus stimulus (staggered rises, see netlist.Stimulus), the
// analysis window is widened to cover the mapped depth unless -horizon is
// given explicitly, and the flat transistor reference defaults off (a
// mid-size flat circuit is one dense MNA system — re-enable with -flat).
//
// -eco script.json switches to the incremental replay mode: the netlist
// is analyzed once into a retained timing graph (internal/graph), then
// the script's edit batches (swap_cell / set_arrival / rewire / set_load;
// see graph.EditScript) apply one by one, each re-propagating only its
// dirty fanout cone, with per-batch economics printed and -eco-json
// optionally capturing the canonical delta reports. The same flow runs
// as a stateful HTTP session via mcsm-serve's /v1/session + /v1/eco.
//
// -mc spec.json switches to the Monte-Carlo variation mode: the spec
// file carries the statistical knobs (trial budget, seed, sigmas — see
// internal/mc.Spec), the workload and backend come from the usual flags,
// and every trial runs a full-circuit STA with deterministic
// instance-keyed variation sampling. The reduced per-output delay
// distributions print as a table, with -mc-json capturing the canonical
// exact-float report (byte-identical to the served /v1/mc reply for the
// same inputs at any worker count).
//
// The flag plumbing (workload loading, -parallel/-cache, SI time parsing)
// is shared with mcsm-sweep and mcsm-serve via internal/cliutil; the
// same analysis is served over HTTP by cmd/mcsm-serve.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"mcsm/internal/cells"
	"mcsm/internal/cliutil"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/mc"
	"mcsm/internal/netlist"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

func main() {
	var (
		netPath   = flag.String("netlist", "", "netlist file (may also be given as the positional argument)")
		format    = flag.String("format", "auto", "netlist format: auto, net, bench")
		gen       = flag.String("gen", "", "analyze a generated circuit instead of a file: gates[:depth[:fanin[:seed[:inputs]]]]")
		dump      = flag.String("dump", "", "write the generic circuit as .bench to this path and exit (bench/gen inputs)")
		all       = flag.Bool("all", false, "report every net, not just primary outputs (bench/gen inputs)")
		arrivals  = flag.String("arrivals", "", "comma list net:rise@TIME or net:fall@TIME (default: all rise@1n; bench/gen: staggered rises)")
		slew      = flag.Float64("slew", cliutil.DefaultSlew, "primary input transition time")
		horizon   = flag.Float64("horizon", 4e-9, "analysis window end")
		dtSpec    = flag.String("dt", "", "stage integration step, e.g. 1p (default 1 ps; coarser steps trade accuracy for speed)")
		flat      = flag.Bool("flat", true, "also run the flat transistor reference (bench/gen inputs default to off)")
		fast      = flag.Bool("fast", true, "reduced-fidelity characterization")
		eco       = flag.String("eco", "", "replay an ECO edit script (JSON) incrementally and report per-batch deltas instead of the MIS/SIS comparison")
		mcSpec    = flag.String("mc", "", "run a Monte-Carlo variation analysis from this spec file (JSON, see internal/mc.Spec) instead of the MIS/SIS comparison")
		mcJSON    = flag.String("mc-json", "", "with -mc: write the canonical MC report to this path (\"-\" = stdout)")
		ecoJSON   = flag.String("eco-json", "", "with -eco: also write the canonical per-batch delta reports as a JSON array to this path (\"-\" = stdout)")
		beJSON    = flag.String("backend-json", "", "with -backend nldm/hybrid: write the canonical backend report (attribution + critical path) to this path (\"-\" = stdout)")
		engFlags  = cliutil.RegisterEngineFlags(flag.CommandLine)
		beFlags   = cliutil.RegisterBackendFlags(flag.CommandLine)
		traceFlag = cliutil.RegisterTraceFlag(flag.CommandLine)
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	path := *netPath
	if path == "" && flag.NArg() > 0 {
		path = flag.Arg(0)
	}

	// Load the workload: either a generated generic circuit, a .bench
	// file (both technology-mapped), or a native netlist.
	var (
		wl  *cliutil.Workload
		err error
	)
	switch {
	case *gen != "":
		spec, serr := cliutil.ParseGenSpec(*gen)
		if serr != nil {
			fatal(serr)
		}
		wl, err = cliutil.GenWorkload(spec)
	case path == "":
		fatal(fmt.Errorf("a netlist path (positional or -netlist) or -gen is required"))
	default:
		wl, err = cliutil.LoadWorkload(path, *format)
	}
	if err != nil {
		fatal(err)
	}

	if *dump != "" {
		if !wl.Mapped {
			fatal(fmt.Errorf("-dump requires a bench or -gen input (a native netlist has no generic-circuit form)"))
		}
		df, derr := os.Create(*dump)
		if derr != nil {
			fatal(derr)
		}
		if err := wl.Circ.WriteBench(df); err != nil {
			fatal(err)
		}
		if err := df.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d inputs, %d outputs, %d gates)\n",
			*dump, len(wl.Circ.Inputs), len(wl.Circ.Outputs), len(wl.Circ.Gates))
		return
	}
	if wl.Mapped {
		fmt.Fprintf(os.Stderr, "mapped %d generic gates onto %d library cells %v, %d levels\n",
			len(wl.Circ.Gates), len(wl.NL.Instances), cliutil.FmtCounts(netlist.CellCounts(wl.NL)), wl.Levels)
	}

	// Bench/gen circuits are arbitrarily deep: widen the window to cover
	// the mapped depth unless the user pinned -horizon.
	explicitHorizon := 0.0
	if explicit["horizon"] || !wl.Mapped {
		explicitHorizon = *horizon
	}
	h := wl.Horizon(explicitHorizon, *horizon, *slew)
	runFlat := *flat
	if wl.Mapped && !explicit["flat"] {
		runFlat = false
	}
	dt, err := cliutil.ParseDt(*dtSpec)
	if err != nil {
		fatal(err)
	}

	tech := cells.Default130()
	cfgName := "fast"
	if !*fast {
		cfgName = "default"
	}
	cfg, err := cliutil.CharConfig(cfgName)
	if err != nil {
		fatal(err)
	}
	eng := engFlags.NewEngine()
	beSpec, err := beFlags.Spec(tech, cfg)
	if err != nil {
		fatal(err)
	}
	// -trace threads a span recorder through whichever mode runs below;
	// the phase table prints to stderr when main returns normally (a
	// fatal() exit has no complete trace to print).
	ctx, tr := cliutil.StartTrace(context.Background(), *traceFlag, "sta")
	defer tr.WriteTable(os.Stderr)
	if *mcSpec != "" {
		if *eco != "" || *ecoJSON != "" {
			fatal(fmt.Errorf("-mc and -eco are mutually exclusive"))
		}
		spec, err := cliutil.LoadMCSpec(*mcSpec)
		if err != nil {
			fatal(err)
		}
		primary := wl.Stimulus(tech.Vdd, *slew, h)
		if err := cliutil.ApplyArrivalSpec(primary, tech.Vdd, *arrivals, *slew, h); err != nil {
			fatal(err)
		}
		if err := runMC(ctx, eng, wl, beSpec, spec, primary, sta.Options{Mode: sta.ModeMIS, Horizon: h, Dt: dt}, *mcJSON); err != nil {
			fatal(err)
		}
		return
	}
	if *mcJSON != "" {
		fatal(fmt.Errorf("-mc-json requires -mc"))
	}
	if beSpec.Kind != engine.BackendCSM {
		h := wl.Horizon(explicitHorizon, *horizon, *slew)
		primary := wl.Stimulus(tech.Vdd, *slew, h)
		if err := cliutil.ApplyArrivalSpec(primary, tech.Vdd, *arrivals, *slew, h); err != nil {
			fatal(err)
		}
		if *eco != "" || *ecoJSON != "" {
			fatal(fmt.Errorf("-eco replay runs on the csm backend"))
		}
		if err := runBackend(ctx, eng, wl, beSpec, primary, sta.Options{Mode: sta.ModeMIS, Horizon: h, Dt: dt}, *beJSON, wl.Mapped && !*all); err != nil {
			fatal(err)
		}
		return
	}
	if *beJSON != "" {
		fatal(fmt.Errorf("-backend-json requires -backend nldm or hybrid"))
	}
	primary := wl.Stimulus(tech.Vdd, *slew, h)
	if err := cliutil.ApplyArrivalSpec(primary, tech.Vdd, *arrivals, *slew, h); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "characterizing cell models (%d workers)...\n", eng.Workers())
	models, err := eng.ModelsForCtx(ctx, tech, wl.NL, cfg)
	if err != nil {
		fatal(err)
	}
	st := eng.Cache().Stats()
	if engFlags.CacheDir != "" {
		fmt.Fprintf(os.Stderr, "models: %d characterized, %d reloaded from %s\n",
			st.Misses-st.DiskHits, st.DiskHits, engFlags.CacheDir)
	} else {
		fmt.Fprintf(os.Stderr, "models: %d characterized\n", st.Misses)
	}

	if *eco != "" {
		if err := runEco(ctx, eng, tech, wl, cfg, primary, sta.Options{Mode: sta.ModeMIS, Horizon: h, Dt: dt}, *eco, *ecoJSON); err != nil {
			fatal(err)
		}
		return
	}
	if *ecoJSON != "" {
		fatal(fmt.Errorf("-eco-json requires -eco"))
	}

	opt := sta.Options{Horizon: h, Dt: dt}
	// The MIS/SIS comparison traces as two named analysis phases; each
	// gets the engine's build/propagate spans as children.
	misSpan := tr.Root().Start("mis")
	mis, err := eng.AnalyzeCtx(obs.WithSpan(ctx, misSpan), wl.NL, models, primary, sta.Options{Mode: sta.ModeMIS, Horizon: h, Dt: dt})
	misSpan.End()
	if err != nil {
		fatal(err)
	}
	sisSpan := tr.Root().Start("sis")
	sis, err := eng.AnalyzeCtx(obs.WithSpan(ctx, sisSpan), wl.NL, models, primary, sta.Options{Mode: sta.ModeSIS, Horizon: h, Dt: dt})
	sisSpan.End()
	if err != nil {
		fatal(err)
	}
	var ref *sta.Report
	if runFlat {
		flatSpan := tr.Root().Start("flat")
		ref, err = eng.FlatReference(wl.NL, tech, primary, opt)
		flatSpan.End()
		if err != nil {
			fatal(err)
		}
	}

	nets := reportNets(wl.NL, wl.Mapped && !*all)
	header := fmt.Sprintf("%-14s %12s %12s", "net", "MIS-STA(ps)", "SIS-STA(ps)")
	if ref != nil {
		header += fmt.Sprintf(" %12s", "flat(ps)")
	}
	fmt.Println(header)
	for _, net := range nets {
		row := fmt.Sprintf("%-14s %12s %12s", net, fmtArr(mis.Nets[net].Arrival), fmtArr(sis.Nets[net].Arrival))
		if ref != nil {
			row += fmt.Sprintf(" %12s", fmtArr(ref.Nets[net].Arrival))
		}
		fmt.Println(row)
	}
	if n := len(mis.MISInstances); n > 0 {
		if wl.Mapped && !*all {
			fmt.Printf("MIS events at %d of %d stages\n", n, len(wl.NL.Instances))
		} else {
			fmt.Printf("MIS events at: %v\n", mis.MISInstances)
		}
	}
	if out, arr, ok := mis.WorstOutput(wl.NL); ok {
		fmt.Printf("worst output %s arrives at %s ps (critical path: %d nets)\n",
			out, fmtArr(arr), len(mis.CriticalPath(wl.NL, out)))
	}
}

// runBackend is the -backend nldm/hybrid mode: one MIS analysis under the
// selected delay calculator, per-net arrivals with stage attribution, the
// hybrid economy line, and optionally the canonical backend report JSON.
func runBackend(ctx context.Context, eng *engine.Engine, wl *cliutil.Workload, spec engine.BackendSpec, primary map[string]wave.Waveform, opt sta.Options, jsonPath string, outputsOnly bool) error {
	fmt.Fprintf(os.Stderr, "analyzing with %s backend (%d workers)...\n", spec.Kind, eng.Workers())
	start := time.Now()
	res, err := eng.AnalyzeBackend(ctx, spec, wl.NL, primary, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	plan := res.Plan

	progress := os.Stdout
	if jsonPath == "-" {
		progress = os.Stderr
	}
	attr := plan.Attribution(wl.NL)
	driver := map[string]string{}
	for _, inst := range wl.NL.Instances {
		driver[inst.Output] = inst.Name
	}
	fmt.Fprintf(progress, "%-14s %12s %8s\n", "net", "arrival(ps)", "backend")
	for _, net := range reportNets(wl.NL, outputsOnly) {
		fmt.Fprintf(progress, "%-14s %12s %8s\n", net, fmtArr(res.Report.Nets[net].Arrival), attr[driver[net]])
	}
	if plan.Kind == engine.BackendHybrid {
		fmt.Fprintf(progress, "hybrid: %d/%d stages via CSM (%.1f%%), margin %s ps\n",
			plan.CSMStages, len(plan.Assign),
			100*float64(plan.CSMStages)/float64(len(plan.Assign)), fmtArr(plan.Margin))
	}
	if out, arr, ok := res.Report.WorstOutput(wl.NL); ok {
		fmt.Fprintf(progress, "worst output %s arrives at %s ps (%s)\n", out, fmtArr(arr), elapsed.Truncate(time.Microsecond))
	}

	if jsonPath == "" {
		return nil
	}
	body, err := engine.MarshalBackendReport(wl.Name, wl.NL, res)
	if err != nil {
		return err
	}
	if jsonPath == "-" {
		_, err = os.Stdout.Write(body)
		return err
	}
	if err := os.WriteFile(jsonPath, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote backend report to %s\n", jsonPath)
	return nil
}

// runMC is the -mc mode: one Monte-Carlo variation run on the selected
// backend, trials fanned across the engine workers, the reduced
// per-output delay distributions printed as a table, and optionally the
// canonical MC report JSON.
func runMC(ctx context.Context, eng *engine.Engine, wl *cliutil.Workload, beSpec engine.BackendSpec, spec *mc.Spec, primary map[string]wave.Waveform, opt sta.Options, jsonPath string) error {
	sigmaVt, sigmaStrength, err := spec.Sigmas()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "monte-carlo: %d trials on %s backend (%d workers, seed %d, σVt %.0fmV, σstr %.2f)...\n",
		spec.Trials, beSpec.Kind, eng.Workers(), spec.Seed, sigmaVt*1e3, sigmaStrength)
	start := time.Now()
	res, err := mc.New(eng).Run(ctx, mc.Config{
		Backend:       beSpec,
		Trials:        spec.Trials,
		Seed:          spec.Seed,
		SigmaVt:       sigmaVt,
		SigmaStrength: sigmaStrength,
		Batch:         spec.Batch,
		Bins:          spec.Bins,
	}, wl.NL, primary, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	progress := os.Stdout
	if jsonPath == "-" {
		progress = os.Stderr
	}
	fmt.Fprintf(progress, "%-14s %9s %10s %9s %10s %10s %10s\n",
		"output", "switched", "mean(ps)", "σ(ps)", "p50(ps)", "p95(ps)", "p99(ps)")
	row := func(name string, d mc.OutputDist) {
		fmt.Fprintf(progress, "%-14s %9d %10s %9s %10s %10s %10s\n",
			name, d.Switched, fmtArr(d.Mean), fmtArr(d.Sigma), fmtArr(d.P50), fmtArr(d.P95), fmtArr(d.P99))
	}
	for _, d := range res.Outputs {
		row(d.Net, d)
	}
	row("worst", res.Worst)
	fmt.Fprintf(progress, "%d trials, %d stage evals in %s (%.1f trials/s)\n",
		res.Trials, res.StageEvals, elapsed.Truncate(time.Millisecond),
		float64(res.Trials)/elapsed.Seconds())

	if jsonPath == "" {
		return nil
	}
	body, err := mc.MarshalReport(wl.Name, res)
	if err != nil {
		return err
	}
	if jsonPath == "-" {
		_, err = os.Stdout.Write(body)
		return err
	}
	if err := os.WriteFile(jsonPath, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote MC report to %s\n", jsonPath)
	return nil
}

// runEco is the -eco replay mode: build the retained incremental timing
// graph once (full analysis), then apply the script's edit batches one by
// one, re-propagating only each batch's dirty cone, and print the
// per-batch economics. With ecoJSON the canonical delta reports are
// additionally written as a JSON array.
func runEco(ctx context.Context, eng *engine.Engine, tech cells.Tech, wl *cliutil.Workload, cfg csm.Config, primary map[string]wave.Waveform, opt sta.Options, scriptPath, ecoJSON string) error {
	script, err := cliutil.LoadEditScript(scriptPath)
	if err != nil {
		return err
	}
	span := obs.SpanFrom(ctx)
	start := time.Now()
	buildSpan := span.Start("build")
	g, _, err := cliutil.BuildGraphCtx(obs.WithSpan(ctx, buildSpan), eng, tech, wl, cfg, primary, opt)
	buildSpan.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "built timing graph: %d stages, cold analysis in %s\n",
		len(g.Netlist().Instances), time.Since(start).Truncate(time.Millisecond))

	// The per-batch economics are the human output; when the JSON array
	// itself goes to stdout ("-"), they move to stderr so the stream
	// stays machine-parseable.
	progress := os.Stdout
	if ecoJSON == "-" {
		progress = os.Stderr
	}
	var deltas []*graph.DeltaReport
	for bi, batch := range script.Batches {
		applied, err := g.ApplyBatch(batch)
		if err != nil {
			return fmt.Errorf("eco batch %d: %w", bi, err)
		}
		t0 := time.Now()
		batchSpan := span.Start("eco_batch")
		batchSpan.LabelInt("batch", int64(bi))
		batchSpan.LabelInt("edits", int64(applied))
		stats, err := g.Propagate(obs.WithSpan(ctx, batchSpan))
		batchSpan.End()
		if err != nil {
			return fmt.Errorf("eco batch %d: %w", bi, err)
		}
		elapsed := time.Since(t0)
		fmt.Fprintf(progress, "eco batch %d: %d edits, %d/%d stages re-evaluated (%.1f%%), %d skipped, %d converged, %d nets changed (%s)\n",
			bi, applied, stats.StagesEvaluated, stats.StagesTotal, 100*stats.ReevalFraction(),
			stats.StagesSkipped, stats.StagesConverged, len(stats.ChangedNets), elapsed.Truncate(time.Microsecond))
		rep := g.Report()
		if out, arr, ok := rep.WorstOutput(g.Netlist()); ok {
			fmt.Fprintf(progress, "  worst output %s arrives at %s ps\n", out, fmtArr(arr))
		}
		deltas = append(deltas, g.Delta(wl.Name, applied, stats))
	}

	if ecoJSON == "" {
		return nil
	}
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, d := range deltas {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		data, err := graph.MarshalDelta(d)
		if err != nil {
			return err
		}
		buf.Write(bytes.TrimRight(data, "\n"))
	}
	buf.WriteString("\n]\n")
	if ecoJSON == "-" {
		_, err = os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(ecoJSON, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d delta reports to %s\n", len(deltas), ecoJSON)
	return nil
}

// reportNets selects the nets to print: primary outputs for mapped
// circuits (unless -all), every instance output otherwise.
func reportNets(nl *sta.Netlist, outputsOnly bool) []string {
	if outputsOnly {
		return nl.PrimaryOut
	}
	nets := make([]string, 0, len(nl.Instances))
	for _, inst := range nl.Instances {
		nets = append(nets, inst.Output)
	}
	return nets
}

func fmtArr(t float64) string {
	if math.IsNaN(t) {
		return "-"
	}
	return fmt.Sprintf("%.2f", t*1e12)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsm-sta:", err)
	os.Exit(1)
}
