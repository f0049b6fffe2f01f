package graph_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mcsm/internal/csm"
	"mcsm/internal/graph"
	"mcsm/internal/sta"
	"mcsm/internal/testutil"
	"mcsm/internal/wave"
)

// chainFixture is a three-stage NAND2 chain (U1 → n1 → U2 → n2 → U3 → y,
// every second pin held high), each stage one level below the last.
func chainFixture(t *testing.T) (*sta.Netlist, map[string]wave.Waveform, sta.Options) {
	t.Helper()
	nl, err := sta.ParseNetlist(strings.NewReader(`
input a b
output y
inst U1 NAND2 n1 a b
inst U2 NAND2 n2 n1 b
inst U3 NAND2 y n2 b
`))
	if err != nil {
		t.Fatal(err)
	}
	vdd := testutil.Tech().Vdd
	return nl, map[string]wave.Waveform{
		"a": wave.SaturatedRamp(0, vdd, 0.3e-9, 80e-12, 1.5e-9),
		"b": wave.Constant(vdd, 0, 1.5e-9),
	}, sta.Options{Horizon: 1.5e-9, Dt: 4e-12}
}

// heldProducer is an evaluator for the chain whose producer stage U1,
// when it has an output stream, publishes three quarters of its output
// and then waits, before returning, until U2 has started: it finishes
// only if U2 started while U1 was still being solved. then, when set,
// turns U1's output into what U1 returns (an error, say, or the output
// after canceling the propagation's context), on any worker count.
type heldProducer struct {
	t           *testing.T
	started     chan struct{}
	once        sync.Once
	then        func(out wave.Waveform) (wave.Waveform, error)
	sawConsumer bool
}

func newHeldProducer(t *testing.T, then func(wave.Waveform) (wave.Waveform, error)) *heldProducer {
	return &heldProducer{t: t, started: make(chan struct{}), then: then}
}

func (h *heldProducer) eval(nl *sta.Netlist, models map[string]*csm.Model, idx int, waves map[string]wave.Waveform, load csm.Load, vdd float64, opt sta.Options) (wave.Waveform, int, error) {
	inst := nl.Instances[idx]
	switch inst.Name {
	case "U2":
		h.once.Do(func() { close(h.started) })
	case "U1":
		s := waves[inst.Output].Stream()
		if s == nil {
			out, sw, err := sta.EvalStageWithLoad(nl, models, idx, waves, load, vdd, opt)
			if err == nil && h.then != nil {
				out, err = h.then(out)
			}
			return out, sw, err
		}
		own := map[string]wave.Waveform{}
		for _, net := range inst.Inputs {
			own[net] = waves[net]
		}
		out, sw, err := sta.EvalStageWithLoad(nl, models, idx, own, load, vdd, opt)
		if err != nil {
			return out, sw, err
		}
		m := 3 * out.Len() / 4
		s.Publish(wave.Waveform{T: out.T[:m:m], V: out.V[:m:m]})
		select {
		case <-h.started:
			h.sawConsumer = true
		case <-time.After(time.Minute):
			h.t.Error("U2 did not start while U1 was held mid-run")
		}
		if h.then != nil {
			out, err = h.then(out)
		}
		return out, sw, err
	}
	return sta.EvalStageWithLoad(nl, models, idx, waves, load, vdd, opt)
}

func buildChain(t *testing.T, workers int, eval graph.EvalFunc) *graph.TimingGraph {
	t.Helper()
	nl, primary, opt := chainFixture(t)
	g, err := graph.Build(nl, testutil.FastModels(t), primary, opt,
		graph.Config{Workers: workers, Eval: eval}.WithLiveStages(func(int) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitGoroutines waits until the goroutine count is back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Propagate (baseline %d)", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestStreamedStartOverlaps: with two workers, a consumer starts while
// its producer is held mid-run — on the cold propagation, where every
// stage is dirty, and after a load edit, where the consumer becomes
// certain only because the producer's published samples differ from its
// retained output. The results and every count but the streamed one
// equal the serial schedule's, where nothing streams.
func TestStreamedStartOverlaps(t *testing.T) {
	serial := buildChain(t, 1, newHeldProducer(t, nil).eval)
	held := newHeldProducer(t, nil)
	g := buildChain(t, 2, held.eval)
	for round := 0; round < 2; round++ {
		if round == 1 {
			for _, x := range []*graph.TimingGraph{serial, g} {
				if err := x.SetLoad("n1", 3e-15); err != nil {
					t.Fatal(err)
				}
			}
			held.started, held.once = make(chan struct{}), sync.Once{}
		}
		held.sawConsumer = false
		want, err := serial.Propagate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Propagate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want.StagesStreamed != 0 {
			t.Errorf("round %d: %d stages streamed on one worker", round, want.StagesStreamed)
		}
		if !held.sawConsumer || got.StagesStreamed < 1 {
			t.Errorf("round %d: consumer overlap %t, %d stages streamed", round, held.sawConsumer, got.StagesStreamed)
		}
		got.StagesStreamed = 0
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("round %d: stats %+v, serial %+v", round, got, want)
		}
		testutil.RequireIdenticalReports(t, fmt.Sprintf("round %d", round), g.Report(), serial.Report())
	}
}

// failingRun propagates a fresh chain whose producer U1 fails or cancels
// the propagation through then, waits for the goroutine count to return
// to its baseline, and returns the graph, its dirty set and the error.
func failingRun(t *testing.T, workers int, then func(cancel func()) func(wave.Waveform) (wave.Waveform, error)) (*graph.TimingGraph, []int, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	held := newHeldProducer(t, then(cancel))
	g := buildChain(t, workers, held.eval)
	base := runtime.NumGoroutine()
	_, err := g.Propagate(ctx)
	waitGoroutines(t, base)
	if workers > 1 && !held.sawConsumer {
		t.Errorf("workers=%d: the consumer did not start while the producer ran", workers)
	}
	return g, graph.Dirty(g), err
}

// TestStreamedProducerFails: a producer that fails after publishing part
// of its output unblocks its streaming consumer; Propagate returns the
// serial schedule's error and dirty set, and no goroutine outlives it.
func TestStreamedProducerFails(t *testing.T) {
	boom := errors.New("U1 failed mid-run")
	fail := func(func()) func(wave.Waveform) (wave.Waveform, error) {
		return func(wave.Waveform) (wave.Waveform, error) { return wave.Waveform{}, boom }
	}
	_, wantDirty, wantErr := failingRun(t, 1, fail)
	_, gotDirty, gotErr := failingRun(t, 2, fail)
	if !errors.Is(wantErr, boom) || !errors.Is(gotErr, boom) {
		t.Fatalf("errors %v (serial) and %v, want %v", wantErr, gotErr, boom)
	}
	if !slices.Equal(gotDirty, wantDirty) || len(wantDirty) != 3 {
		t.Errorf("dirty set %v, serial %v", gotDirty, wantDirty)
	}
}

// TestStreamedCancel: a context canceled while a stream is open stops the
// propagation at the next commit, as the serial schedule stops, with the
// same dirty set and no goroutine left; a later Propagate completes.
func TestStreamedCancel(t *testing.T) {
	cancelMidRun := func(cancel func()) func(wave.Waveform) (wave.Waveform, error) {
		return func(out wave.Waveform) (wave.Waveform, error) {
			cancel()
			return out, nil
		}
	}
	serial, wantDirty, wantErr := failingRun(t, 1, cancelMidRun)
	g, gotDirty, gotErr := failingRun(t, 2, cancelMidRun)
	if !errors.Is(wantErr, context.Canceled) || !errors.Is(gotErr, context.Canceled) {
		t.Fatalf("errors %v (serial) and %v, want context.Canceled", wantErr, gotErr)
	}
	if !slices.Equal(gotDirty, wantDirty) || len(wantDirty) != 3 {
		t.Errorf("dirty set %v, serial %v", gotDirty, wantDirty)
	}
	for _, x := range []*graph.TimingGraph{serial, g} {
		if _, err := x.Propagate(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	testutil.RequireIdenticalReports(t, "after cancellation", g.Report(), serial.Report())
}
