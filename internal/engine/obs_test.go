package engine

import (
	"context"
	"testing"

	"mcsm/internal/obs"
	"mcsm/internal/testutil"
)

// TestTracedAnalyzeBackendBitIdentical: running an analysis under a live
// trace must change nothing about its result — span recording observes
// the computation from the outside. Also pins the span taxonomy the
// service and CLI rely on (plan/build/propagate under the root).
func TestTracedAnalyzeBackendBitIdentical(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	for _, kind := range []BackendKind{BackendCSM, BackendNLDM, BackendHybrid} {
		spec := BackendSpec{Kind: kind, Tech: testutil.Tech(), CSM: testutil.CoarseConfig()}
		e := New(0, nil)
		plain, err := e.AnalyzeBackend(context.Background(), spec, nl, primary, opt)
		if err != nil {
			t.Fatalf("%s untraced: %v", kind, err)
		}

		tr := obs.New("test")
		traced, err := e.AnalyzeBackend(obs.WithSpan(context.Background(), tr.Root()), spec, nl, primary, opt)
		if err != nil {
			t.Fatalf("%s traced: %v", kind, err)
		}
		testutil.RequireIdenticalReports(t, string(kind)+" traced vs untraced", traced.Report, plain.Report)

		tree := tr.Finish()
		if tree.CountSpans() < 4 {
			t.Errorf("%s: trace has %d spans, want >= 4 (root + plan/build/propagate)", kind, tree.CountSpans())
		}
		seen := map[string]bool{}
		for _, c := range tree.Children {
			seen[c.Name] = true
		}
		for _, want := range []string{"plan", "build", "propagate"} {
			if !seen[want] {
				t.Errorf("%s: trace missing %q child span (got %v)", kind, want, tree.Children)
			}
		}
	}
}

// TestStageHistObserves: the engine's always-on stage-evaluation
// histogram fills during any analysis, traced or not.
func TestStageHistObserves(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	e := New(0, nil)
	before := e.StageHist().Count()
	if _, err := e.AnalyzeBackend(context.Background(),
		BackendSpec{Kind: BackendCSM, Tech: testutil.Tech(), CSM: testutil.CoarseConfig()},
		nl, primary, opt); err != nil {
		t.Fatal(err)
	}
	got := e.StageHist().Count() - before
	if got < int64(len(nl.Instances)) {
		t.Errorf("stage histogram grew by %d, want >= %d", got, len(nl.Instances))
	}
}

// TestTracedNLDMTables: table resolution has its own span under plan,
// one nldm_table child per cell type labeled by how it was satisfied —
// characterized on a fresh engine, a hit on the next analysis.
func TestTracedNLDMTables(t *testing.T) {
	nl, primary, opt := testutil.C17Fixture(t)
	e := New(0, coarseCache) // fresh NLDM tables, warm CSM models
	spec := BackendSpec{Kind: BackendHybrid, Tech: testutil.Tech(), CSM: testutil.CoarseConfig()}
	for _, want := range []Outcome{OutcomeCharacterized, OutcomeHit} {
		tr := obs.New("test")
		if _, err := e.AnalyzeBackend(obs.WithSpan(context.Background(), tr.Root()), spec, nl, primary, opt); err != nil {
			t.Fatal(err)
		}
		var tables *obs.SpanNode
		for _, c := range tr.Finish().Children {
			if c.Name != "plan" {
				continue
			}
			for _, p := range c.Children {
				if p.Name == "nldm_tables" {
					tables = p
				}
			}
		}
		if tables == nil || len(tables.Children) != 1 {
			t.Fatalf("plan has no nldm_tables span with one table: %+v", tables)
		}
		if got := tables.Children[0]; got.Name != "nldm_table" || got.Labels["cell"] != "NAND2" || got.Labels["outcome"] != string(want) {
			t.Errorf("table span %s %v, want NAND2 %s", got.Name, got.Labels, want)
		}
	}
}
