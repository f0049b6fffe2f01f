package engine

import (
	"context"
	"fmt"
	"testing"

	"mcsm/internal/graph"
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

// levelLabels lists the labels of the level spans under a propagation
// span, in order.
func levelLabels(t *testing.T, prop *obs.SpanNode) []string {
	t.Helper()
	var out []string
	for _, c := range prop.Children {
		if c.Name != "level" {
			t.Errorf("propagation child span %q, want only level spans", c.Name)
		}
		out = append(out, fmt.Sprintf("level=%s dirty=%s evaluated=%s skipped=%s",
			c.Labels["level"], c.Labels["dirty"], c.Labels["evaluated"], c.Labels["skipped"]))
	}
	return out
}

// TestTracedLevelSpans: a traced c17 analysis keeps its span names (plan,
// build and propagate under the root, one level span per level with
// dirty stages under propagate) and each level span's level, dirty,
// evaluated and skipped labels, on one worker and on two. An incremental
// round that the input cutoff prunes labels its skip the same way.
func TestTracedLevelSpans(t *testing.T) {
	ctx := context.Background()
	nl, primary, opt := testutil.C17Fixture(t)
	spec := BackendSpec{Kind: BackendCSM, Tech: testutil.Tech(), CSM: testutil.CoarseConfig()}
	cold := []string{
		"level=0 dirty=2 evaluated=2 skipped=0",
		"level=1 dirty=2 evaluated=2 skipped=0",
		"level=2 dirty=2 evaluated=2 skipped=0",
	}
	for _, workers := range []int{1, 2} {
		e := New(workers, coarseCache)
		tr := obs.New("sta")
		if _, err := e.AnalyzeBackend(obs.WithSpan(ctx, tr.Root()), spec, nl, primary, opt); err != nil {
			t.Fatal(err)
		}
		tree := tr.Finish()
		var names []string
		for _, c := range tree.Children {
			names = append(names, c.Name)
		}
		if fmt.Sprint(names) != "[plan build propagate]" {
			t.Fatalf("workers=%d: root children %v, want [plan build propagate]", workers, names)
		}
		if got := levelLabels(t, tree.Children[2]); fmt.Sprint(got) != fmt.Sprint(cold) {
			t.Errorf("workers=%d: level spans %q, want %q", workers, got, cold)
		}

		// G19's pin 1 rewired to n10 and back: G10 re-evaluates (its load
		// moved and moved back), G19 is skipped by the input cutoff.
		models, err := e.ModelsFor(spec.Tech, nl, spec.CSM)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(nl, models, primary, opt, graph.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Propagate(ctx); err != nil {
			t.Fatal(err)
		}
		if err := g.Rewire("G19", 1, "n10"); err != nil {
			t.Fatal(err)
		}
		if err := g.Rewire("G19", 1, "n7"); err != nil {
			t.Fatal(err)
		}
		tr = obs.New("eco")
		if _, err := g.Propagate(obs.WithSpan(ctx, tr.Root())); err != nil {
			t.Fatal(err)
		}
		want := []string{"level=0 dirty=1 evaluated=1 skipped=0", "level=1 dirty=1 evaluated=0 skipped=1"}
		if got := levelLabels(t, tr.Finish()); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: incremental level spans %q, want %q", workers, got, want)
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
