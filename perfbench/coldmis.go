package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"mcsm/internal/service"
	"mcsm/internal/sta"
)

// coldMISSample is how many cold-mis replies the untraced mode verifies
// against the direct engine: each reference costs as much as the request
// itself, so a seeded sample keeps verification short. The traced mode
// verifies every traced reply as it replays them.
const coldMISSample = 12

// coldMIS posts /v1/sta for c17 (six NAND2 stages, all multiple-input
// switching events) with seeded arrival skews on its five inputs. Every
// request is a distinct analysis: the parsed netlist is cached, but the
// warm graph and request coalescing both miss, so each request pays the
// full MCSM propagation under the default characterization profile.
type coldMIS struct {
	seed int64
	replyHashes
}

func (c *coldMIS) clients() int { return 1 }

func (c *coldMIS) period() int { return 1 }

func (c *coldMIS) classes() []string { return []string{"c17-mis"} }

func (c *coldMIS) models() modelSet { return modelSet{config: "fast", csm: []string{"NAND2"}} }

func c17Request(arrivals string) service.STARequest {
	return service.STARequest{Name: "c17", Netlist: sta.C17Netlist, Format: "net", Stimulus: "c17", Arrivals: arrivals}
}

// arrivals draws request i's input arrival times: every input switches
// once, within a 120 ps window at 0.1 ps resolution, so the NAND2 stacks
// see genuine multiple-input switching with seeded skews.
func (c *coldMIS) arrivals(i int) string {
	rng := rand.New(rand.NewPCG(uint64(c.seed), uint64(i)))
	at := func() string { return fmt.Sprintf("%.4fn", 1+float64(rng.IntN(1200))/1e4) }
	return fmt.Sprintf("n1:rise@%s,n2:rise@%s,n3:rise@%s,n6:rise@%s,n7:fall@%s", at(), at(), at(), at(), at())
}

func (c *coldMIS) analysisRequest(i int) service.STARequest { return c17Request(c.arrivals(i)) }

func (c *coldMIS) request(i int) request {
	body, _ := json.Marshal(c.analysisRequest(i)) // plain strings: cannot fail
	return request{path: "/v1/sta", body: body}
}

// warmup parses and caches the c17 netlist on the server with one request
// outside the sequence (the canonical c17 drive).
func (c *coldMIS) warmup(ctx context.Context, e *env) error {
	body, _ := json.Marshal(c17Request(""))
	_, err := e.postOK(ctx, "/v1/sta", body)
	return err
}

func (c *coldMIS) prepare(ctx context.Context, e *env, tr *tracer) error {
	a, err := resolve(c17Request(""), e.tech)
	if err != nil {
		return err
	}
	return timePlan(ctx, e, a, tr)
}

// verify checks a seeded sample of coldMISSample replies against the
// direct engine's one-shot path.
func (c *coldMIS) verify(ctx context.Context, e *env, n int, _ *tracer) (int, []int, error) {
	rng := rand.New(rand.NewPCG(uint64(c.seed), 0x5a5a))
	idx := rng.Perm(n)
	idx = idx[:min(n, coldMISSample)]
	sort.Ints(idx)
	var bad []int
	for _, i := range idx {
		a, err := resolve(c.analysisRequest(i), e.tech)
		if err != nil {
			return 0, nil, err
		}
		want, _, err := reference(ctx, e.srv.Engine(), a)
		if err != nil {
			return 0, nil, err
		}
		if !c.matches(i, want) {
			bad = append(bad, i)
		}
	}
	return len(idx), bad, nil
}

func (c *coldMIS) replay(ctx context.Context, e *env, i int, tr *tracer) (bool, error) {
	a, err := resolve(c.analysisRequest(i), e.tech)
	if err != nil {
		return false, err
	}
	root := tr.begin("replay", i, 0)
	got, err := replayAnalysis(ctx, e.srv.Engine(), a, tr, i, root.id())
	root.end()
	return err == nil && c.matches(i, got), err
}

func (c *coldMIS) hygiene(w *window) error {
	if hits := w.after.GraphCache.Hits - w.before.GraphCache.Hits; hits != 0 {
		return fmt.Errorf("cold-mis hit the warm-graph cache %d times; every request must be a distinct analysis", hits)
	}
	return nil
}
