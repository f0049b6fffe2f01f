package engine

import (
	"os"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/netlist"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
)

// TestSerialParallelBitExactMidSize extends the determinism contract from
// c17 to a mid-size corpus circuit: the technology-mapped c432-class
// benchmark (552 cells, 67 levels) analyzed serially and with a wide
// worker pool must produce bit-identical reports. The analysis window is
// a 2.6 ns prefix at a coarse step — every one of the 552 stages still
// runs its full implicit simulation, which is what the scheduling
// contract is about; the c17 test covers full-switching windows.
func TestSerialParallelBitExactMidSize(t *testing.T) {
	f, err := os.Open("../netlist/testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := netlist.ParseBench(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.Map(circ)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Instances) < 300 {
		t.Fatalf("mapped c432 has %d cells — not a mid-size workload", len(nl.Instances))
	}

	tech := cells.Default130()
	serialEng := New(1, coarseCache)
	models, err := serialEng.ModelsFor(tech, nl, testutil.CoarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2.6e-9
	primary := netlist.Stimulus(nl.PrimaryIn, tech.Vdd, 80e-12, horizon)
	opt := sta.Options{Horizon: horizon, Dt: 4e-12}

	serial, err := serialEng.Analyze(nl, models, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	parallelEng := New(8, nil)
	parallel, err := parallelEng.Analyze(nl, models, primary, opt)
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireIdenticalReports(t, "mid-size serial-vs-parallel", serial, parallel)
	if !ReportsIdentical(serial, parallel) {
		t.Error("ReportsIdentical disagrees with the detailed comparison")
	}
	if got := parallelEng.StageEvals(); got != int64(len(nl.Instances)) {
		t.Errorf("stage evals = %d, want %d", got, len(nl.Instances))
	}
	// The staggered corpus stimulus must provoke genuine MIS events in
	// the window — the scheduler's MIS accounting survives parallelism.
	if len(serial.MISInstances) == 0 {
		t.Error("no MIS events in the analysis window")
	}
}
