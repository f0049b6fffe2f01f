// Command mcsm-bench regenerates the paper's evaluation: every figure
// (Figs. 3–5, 9–12) plus the ablations and the STA application indexed in
// DESIGN.md, printed as text tables.
//
// Usage:
//
//	mcsm-bench            # everything, full fidelity
//	mcsm-bench -quick     # reduced sweeps (seconds instead of minutes)
//	mcsm-bench -only fig9,fig12
//	mcsm-bench -list
//
// Performance is measured elsewhere: perfbench/ for the served workloads
// and the testing.B benchmarks indexed in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mcsm/internal/cliutil"
	"mcsm/internal/experiments"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced characterization and sweep densities")
		only       = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		parallel   = flag.Int("parallel", 0, "engine worker-pool width (0 = GOMAXPROCS, 1 = serial)")
		dtSpec     = flag.String("dt", "", "transient step override, e.g. 4p (default: the profile's 1 ps)")
		cacheDir   = flag.String("cache", "", "model cache directory (spill/reload characterized models)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Workers = *parallel
	cfg.CacheDir = *cacheDir
	if dt, err := cliutil.ParseDt(*dtSpec); err != nil {
		fatal(err)
	} else if dt > 0 {
		cfg.Dt = dt
	}
	sess := experiments.NewSession(cfg)

	selected := experiments.All()
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.Find(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		start := time.Now()
		r, err := e.Run(sess)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Println(r.Render())
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Truncate(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsm-bench:", err)
	os.Exit(1)
}
