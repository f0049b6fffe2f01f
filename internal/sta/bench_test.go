package sta_test

import (
	"testing"

	"mcsm/internal/sta"
	"mcsm/internal/testutil"
)

// BenchmarkEvalStageC17 times one STA stage solve: c17's G10, an MCSM
// NAND2 with both inputs switching, over the 4 ns window at 1 ps (4,000
// steps) through sta.EvalStage. The stage records only its output, 32 KB
// of samples on the analysis's shared time grid; a record of every
// unknown cost ~449 KB per stage. One solve before the timer fills the
// model's stage pool and DC memo, so every timed op is a warm solve, and
// CI caps its B/op and allocs/op just above that.
func BenchmarkEvalStageC17(b *testing.B) {
	models := testutil.CoarseNAND2Models(b)
	nl, primary, opt := testutil.C17Fixture(b)
	opt.Dt = 1e-12
	vdd, opt, err := sta.Setup(models, primary, opt)
	if err != nil {
		b.Fatal(err)
	}
	idx := -1
	for i, inst := range nl.Instances {
		if inst.Name == "G10" {
			idx = i
		}
	}
	fanouts := nl.Fanouts()
	if _, _, err := sta.EvalStage(nl, models, fanouts, idx, primary, vdd, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sta.EvalStage(nl, models, fanouts, idx, primary, vdd, opt); err != nil {
			b.Fatal(err)
		}
	}
}
