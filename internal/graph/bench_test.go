package graph_test

import (
	"context"
	"testing"

	"mcsm/internal/graph"
	"mcsm/internal/testutil"
)

// BenchmarkPropagateC17 is the untraced propagation path: c17 with every
// stage dirty on two workers, so each op schedules six MIS stage solves
// (the models' DC memos are warm after the first). CI bounds its
// allocs/op and B/op at -cpu 2, where they do not depend on the host:
// each P keeps its own pooled stage benches, so more Ps build more.
func BenchmarkPropagateC17(b *testing.B) {
	nl, primary, opt := testutil.C17Fixture(b)
	models := testutil.FastModels(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := graph.Build(nl, models, primary, opt, graph.Config{Workers: 2, ShareNetlist: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.Propagate(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
