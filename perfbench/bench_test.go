package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"mcsm/internal/cliutil"
)

// sequence returns the first n request bodies of a workload, with the
// class of each request appended so that warm-mix, whose bodies repeat
// by design, compares by its class order.
func sequence(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	wl, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := wl.(*ecoCrit); ok {
		// prepare derives the targets from a live server's hybrid reply;
		// a fixed stage list stands in for it here.
		w, err := cliutil.ParseWorkload("circuit", "bench", c.c432)
		if err != nil {
			t.Fatal(err)
		}
		c.targets = ecoTargets(w.NL, []string{"gn14", "gn148", "gn21", "gn8"})
	}
	out := make([][]byte, n)
	for i := range out {
		r := wl.request(i)
		out[i] = append(slices.Clone(r.body), byte(r.class))
	}
	return out
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"cold-mis", "warm-mix", "eco-crit"} {
		t.Run(name, func(t *testing.T) {
			a, b, other := sequence(t, name, 7, 200), sequence(t, name, 7, 200), sequence(t, name, 8, 200)
			if !slices.EqualFunc(a, b, bytes.Equal) {
				t.Error("the same seed gave two different request sequences")
			}
			if slices.EqualFunc(a, other, bytes.Equal) {
				t.Error("seeds 7 and 8 gave the same request sequence")
			}
		})
	}
}

func TestColdMISRequestsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, body := range sequence(t, "cold-mis", 1, 2000) {
		if seen[string(body)] {
			t.Fatalf("repeated request %s", body)
		}
		seen[string(body)] = true
	}
}

func TestPercentilesMatchNearestRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(rng.IntN(50)) // duplicates on purpose
		}
		orig := slices.Clone(samples)
		qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
		got := percentiles(samples, qs...)
		for k, q := range qs {
			// Reference: the smallest sample with at least ⌈q·n⌉ samples
			// at or below it.
			rank := max(1, int(math.Ceil(q*float64(n))))
			want := math.Inf(1)
			for _, x := range samples {
				atOrBelow := 0
				for _, y := range samples {
					if y <= x {
						atOrBelow++
					}
				}
				if atOrBelow >= rank && x < want {
					want = x
				}
			}
			if got[k] != want {
				t.Errorf("n=%d q=%g: got %g, want %g", n, q, got[k], want)
			}
		}
		if !slices.Equal(samples, orig) {
			t.Errorf("n=%d: percentiles reordered its input", n)
		}
	}
	if v := percentiles(nil, 0.5)[0]; !math.IsNaN(v) {
		t.Errorf("empty sample: got %g, want NaN", v)
	}
}

// TestSmoke runs each workload for a few requests in the traced mode,
// which sends an untraced and a traced window: every reply must pass
// verification, and the run must print exactly the metrics BENCHMARK.json
// declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes cell models")
	}
	spec := readSpec(t)
	for _, name := range []string{"cold-mis", "warm-mix", "eco-crit"} {
		t.Run(name, func(t *testing.T) {
			opt := options{workload: name, seed: 1, seconds: 60, trace: true, setups: 1, limit: 3, traceDir: t.TempDir()}
			var log bytes.Buffer
			rep, err := bench(context.Background(), opt, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted != 6 {
				t.Fatalf("correct=%t failed=%d attempted=%d\n%s", rep.res.Correct, rep.res.Failed, rep.res.Attempted, log.String())
			}
			for _, c := range []struct {
				kind string
				m    metrics
				want []specMetric
			}{{"end_to_end", rep.endToEnd, spec.EndToEnd}, {"per_layer", rep.layers, spec.PerLayer}} {
				if len(c.m) != len(c.want) {
					t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", c.kind, len(c.m), len(c.want))
				}
				for _, w := range c.want {
					if got, ok := c.m[w.Name]; !ok || got.Unit != w.Unit {
						t.Errorf("%s: metric %s: got %+v, want unit %s", c.kind, w.Name, got, w.Unit)
					}
				}
			}
		})
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}
