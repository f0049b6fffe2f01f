package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"

	"mcsm/internal/cliutil"
	"mcsm/internal/service"
)

// warmMix posts a seeded, skewed mix drawn from a fixed catalogue that
// fits in the warm-graph LRU and is computed during set-up, so no request
// solves anything: time goes to HTTP, decode, key hashing and the LRU
// lookup, TimingGraph.Report, and the canonical marshal with its waveform
// fingerprints. Two clients post concurrently.
type warmMix struct {
	seed    int64
	entries []*warmEntry
	block   []int // entry indices of one block of the sequence
}

// warmEntry is one request of the warm-mix catalogue: a single /v1/sta
// analysis, or a /v1/sta:batch post of several.
type warmEntry struct {
	name  string
	count int // requests of this entry per block of the sequence
	path  string
	items []service.STARequest
	body  []byte
	// want is what every reply must equal: the direct-engine bytes of a
	// single analysis, or the set-up reply of a batch once its items have
	// been checked against the direct engine.
	want []byte

	refs     []*refGraph // the entry's distinct analyses, for the traced replay
	refBytes [][]byte
}

// The block composition fixes the mix: one block of 40 requests holds
// exactly count requests of each entry, and the seed only shuffles each
// block, so the mix is the same for every seed. Warm latencies order the
// classes c17 (~0.65 ms) < batch (~1.2 ms) < c432 nldm (~2.2 ms) < c432
// hybrid (~2.8 ms) < c880 nldm (~5.4 ms). c17 takes the lowest 65% of
// the ranks, so the p50 sits 15 points inside it; c880 nldm takes the top
// 20%, so the p90 sits 10 points above its only neighbour.
func newWarmMix(seed int64) (*warmMix, error) {
	c432, err := benchCircuit(c432Spec)
	if err != nil {
		return nil, err
	}
	c880, err := benchCircuit(c880Spec)
	if err != nil {
		return nil, err
	}
	nldmReq := func(name, text string) service.STARequest {
		return service.STARequest{Name: name, Netlist: text, Format: "bench", Dt: "4p", Backend: "nldm"}
	}
	w := &warmMix{seed: seed}
	for k, count := range []int{7, 7, 6, 6} {
		w.entries = append(w.entries, &warmEntry{name: fmt.Sprintf("c17-s%d", k), count: count, path: "/v1/sta",
			items: []service.STARequest{goldenC17(c17Stimuli[k])}})
	}
	w.entries = append(w.entries,
		&warmEntry{name: "batch", count: 4, path: "/v1/sta:batch", items: []service.STARequest{
			goldenC17(c17Stimuli[0]), goldenC17(c17Stimuli[0]), goldenC17(c17Stimuli[1]),
		}},
		&warmEntry{name: "c432-nldm", count: 1, path: "/v1/sta", items: []service.STARequest{nldmReq("c432", c432)}},
		&warmEntry{name: "c432-hybrid", count: 1, path: "/v1/sta", items: []service.STARequest{c432Hybrid(c432)}},
		&warmEntry{name: "c880-nldm", count: 8, path: "/v1/sta", items: []service.STARequest{nldmReq("c880", c880)}},
	)
	for i, en := range w.entries {
		var v any = en.items[0]
		if en.path == "/v1/sta:batch" {
			v = service.BatchSTARequest{Items: en.items}
		}
		if en.body, err = json.Marshal(v); err != nil {
			return nil, err
		}
		for range en.count {
			w.block = append(w.block, i)
		}
	}
	return w, nil
}

// c17Stimuli are the catalogue's c17 drives: arrival overlays on the
// canonical c17 stimulus.
var c17Stimuli = []string{"", "n1:rise@1.02n", "n3:rise@1.08n,n7:rise@1.1n", "n2:fall@1.04n,n6:fall@1.06n"}

// goldenC17 is c17 under the golden-fixture profile
// (testdata/golden/c17_sta_request.json) with an arrival overlay.
func goldenC17(arrivals string) service.STARequest {
	r := c17Request(arrivals)
	r.Config, r.Dt, r.Horizon = "coarse", "2p", "4n"
	return r
}

// c432Hybrid is the golden hybrid request
// (testdata/golden/c432_hybrid_request.json).
func c432Hybrid(text string) service.STARequest {
	return service.STARequest{Name: "c432", Netlist: text, Format: "bench", Config: "coarse", Dt: "4p", Horizon: "2.6n", Backend: "hybrid", Margin: "150p"}
}

const (
	c432Spec = "160:17:4:432:36"
	c880Spec = "383:24:4:880:60"
)

// benchCircuit generates a corpus circuit (the seeded stand-ins of
// internal/netlist/testdata) as .bench text.
func benchCircuit(spec string) (string, error) {
	gs, err := cliutil.ParseGenSpec(spec)
	if err != nil {
		return "", err
	}
	wl, err := cliutil.GenWorkload(gs)
	if err != nil {
		return "", err
	}
	return wl.Text, nil
}

func (w *warmMix) clients() int { return 2 }

func (w *warmMix) period() int { return len(w.block) }

func (w *warmMix) classes() []string {
	out := make([]string, len(w.entries))
	for i, en := range w.entries {
		out[i] = en.name
	}
	return out
}

func (w *warmMix) models() modelSet {
	types := []string{"INV", "NAND2", "NOR2"}
	return modelSet{config: "coarse", csm: types, nldm: types}
}

// warmup computes the whole catalogue on the server, each entry once, so
// every analysis is retained in the warm-graph LRU.
func (w *warmMix) warmup(ctx context.Context, e *env) error {
	for _, en := range w.entries {
		reply, err := e.postOK(ctx, en.path, en.body)
		if err != nil {
			return err
		}
		en.want = slices.Clone(reply)
	}
	return nil
}

// prepare checks every set-up reply against the direct engine, so the
// window can compare each reply byte for byte with verified bytes.
func (w *warmMix) prepare(ctx context.Context, e *env, tr *tracer) error {
	var mismatches []error
	for _, en := range w.entries {
		seen := map[string][]byte{}
		var itemBytes [][]byte
		for _, it := range en.items {
			key := fmt.Sprintf("%+v", it)
			if _, ok := seen[key]; !ok {
				a, err := resolve(it, e.tech)
				if err != nil {
					return err
				}
				if err := covered(a.cellTypes(), w.models()); err != nil {
					return fmt.Errorf("%s: %w", en.name, err)
				}
				if err := timePlan(ctx, e, a, tr); err != nil {
					return err
				}
				want, ref, err := reference(ctx, e.srv.Engine(), a)
				if err != nil {
					return err
				}
				seen[key] = want
				// Only the traced replay needs the reference graphs; holding
				// them in an untraced run would add to live_heap_mb.
				if tr != nil {
					en.refs, en.refBytes = append(en.refs, ref), append(en.refBytes, want)
				}
			}
			itemBytes = append(itemBytes, seen[key])
		}
		err := en.check(itemBytes)
		switch {
		case en.path == "/v1/sta":
			en.want = itemBytes[0]
		case err != nil:
			en.want = nil // no verified bytes: every reply to the entry fails
		}
		if err != nil {
			mismatches = append(mismatches, fmt.Errorf("%s: %w", en.name, err))
		}
	}
	return errors.Join(mismatches...)
}

// check compares the entry's set-up reply with the direct-engine bytes of
// its items.
func (en *warmEntry) check(items [][]byte) error {
	if en.path == "/v1/sta" {
		if !bytes.Equal(en.want, items[0]) {
			return errMismatch
		}
		return nil
	}
	var reply service.BatchSTAReply
	if err := json.Unmarshal(en.want, &reply); err != nil || len(reply.Items) != len(items) {
		return fmt.Errorf("unreadable batch reply: %w", errMismatch)
	}
	for k, it := range reply.Items {
		if it.Status != http.StatusOK || !bytes.Equal(it.Report, bytes.TrimSuffix(items[k], []byte{'\n'})) {
			return fmt.Errorf("item %d: %w", k, errMismatch)
		}
	}
	return nil
}

func (w *warmMix) request(i int) request {
	n := len(w.block)
	rng := rand.New(rand.NewPCG(uint64(w.seed), uint64(i/n)))
	perm := slices.Clone(w.block)
	rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	en := w.entries[perm[i%n]]
	return request{path: en.path, body: en.body, class: perm[i%n]}
}

func (w *warmMix) record(i int, body []byte) error {
	en := w.entries[w.request(i).class]
	if !bytes.Equal(body, en.want) {
		return fmt.Errorf("request %d (%s): reply differs from the verified bytes", i, en.name)
	}
	return nil
}

// verify has nothing left to check: record compares every reply.
func (w *warmMix) verify(context.Context, *env, int, *tracer) (int, []int, error) {
	return 0, nil, nil
}

// replay repeats the server-side work of a warm request: the request
// decode, then TimingGraph.Report and the marshal of every distinct
// analysis the request names.
func (w *warmMix) replay(_ context.Context, _ *env, i int, tr *tracer) (bool, error) {
	en := w.entries[w.request(i).class]
	root := tr.begin("replay", i, 0)
	defer root.end()
	sp := tr.begin("service.decode", i, root.id())
	var err error
	if en.path == "/v1/sta:batch" {
		err = json.Unmarshal(en.body, new(service.BatchSTARequest))
	} else {
		err = json.Unmarshal(en.body, new(service.STARequest))
	}
	sp.end()
	if err != nil {
		return false, err
	}
	ok := true
	for k, ref := range en.refs {
		got, err := ref.marshal(tr, i, root.id())
		if err != nil {
			return false, err
		}
		ok = ok && bytes.Equal(got, en.refBytes[k])
	}
	return ok, nil
}

func (w *warmMix) hygiene(win *window) error {
	hits := win.after.GraphCache.Hits - win.before.GraphCache.Hits
	misses := win.after.GraphCache.Misses - win.before.GraphCache.Misses
	if misses != 0 || hits == 0 {
		return fmt.Errorf("warm-mix missed the warm-graph cache %d times (%d hits); the catalogue must stay resident", misses, hits)
	}
	return nil
}
