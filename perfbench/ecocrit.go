package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"mcsm/internal/cliutil"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/graph"
	"mcsm/internal/service"
	"mcsm/internal/sta"
)

// ecoSession is the session id eco-crit creates during set-up.
const ecoSession = "perfbench-eco"

// ecoCrit drives one hybrid c432 ECO session with seeded batches aimed at
// the CSM-refined stages and their fan-in drivers: each round re-sizes a
// target (X1↔X2) and sets the load on its output, then re-propagates the
// cone, mixing NLDM evaluations with CSM re-solves.
type ecoCrit struct {
	seed int64
	c432 string
	replyHashes

	sta     []byte   // the set-up /v1/sta hybrid reply
	targets []target // CSM-refined stages and their fan-in drivers, sorted

	ref     *graph.TimingGraph // private reference graph, replayed round by round
	ev      *evalTimer         // its stage evaluator
	applied int                // rounds applied to ref
}

// target is an instance an ECO round edits.
type target struct {
	inst, typ, out string
}

func newEcoCrit(seed int64) (*ecoCrit, error) {
	c432, err := benchCircuit(c432Spec)
	if err != nil {
		return nil, err
	}
	return &ecoCrit{seed: seed, c432: c432}, nil
}

func (c *ecoCrit) clients() int { return 1 }

func (c *ecoCrit) period() int { return len(c.targets) }

func (c *ecoCrit) classes() []string { return []string{"eco-round"} }

// models covers the c432 cell types and the X2 variants ECO re-sizing
// swaps to: swap_cell on a hybrid graph needs the new type's CSM model,
// and its NLDM table for the loads the neighbouring table stages see.
func (c *ecoCrit) models() modelSet {
	types := []string{"INV", "NAND2", "NOR2", "INV_X2", "NAND2_X2", "NOR2_X2"}
	return modelSet{config: "coarse", csm: types, nldm: types}
}

// warmup takes the hybrid /v1/sta reply whose attribution names the
// CSM-refined stages, then creates the ECO session.
func (c *ecoCrit) warmup(ctx context.Context, e *env) error {
	body, _ := json.Marshal(c432Hybrid(c.c432))
	reply, err := e.postOK(ctx, "/v1/sta", body)
	if err != nil {
		return err
	}
	c.sta = slices.Clone(reply)
	body, _ = json.Marshal(service.SessionRequest{STARequest: c432Hybrid(c.c432), Session: ecoSession})
	_, err = e.postOK(ctx, "/v1/session", body)
	return err
}

// prepare verifies the set-up hybrid reply and derives the round targets
// from its attribution field.
func (c *ecoCrit) prepare(ctx context.Context, e *env, tr *tracer) error {
	a, err := resolve(c432Hybrid(c.c432), e.tech)
	if err != nil {
		return err
	}
	if err := timePlan(ctx, e, a, tr); err != nil {
		return err
	}
	want, _, err := reference(ctx, e.srv.Engine(), a)
	if err != nil {
		return err
	}
	var mismatch error
	if !bytes.Equal(c.sta, want) {
		mismatch = fmt.Errorf("eco-crit set-up /v1/sta: %w", errMismatch)
	}
	var rep engine.BackendGolden
	if err := json.Unmarshal(c.sta, &rep); err != nil {
		return err
	}
	var csmStages []string
	for inst, kind := range rep.Attribution {
		if kind == string(engine.BackendCSM) {
			csmStages = append(csmStages, inst)
		}
	}
	c.targets = ecoTargets(a.wl.NL, csmStages)
	if len(c.targets) == 0 {
		return fmt.Errorf("eco-crit: the hybrid reply refines no stage with CSM")
	}
	var reach []string
	for _, t := range c.targets {
		reach = append(reach, t.typ, resized(t.typ))
	}
	if err := covered(reach, c.models()); err != nil {
		return err
	}
	return mismatch
}

// ecoTargets returns the named stages plus the instances driving their
// inputs, sorted by instance name.
func ecoTargets(nl *sta.Netlist, stages []string) []target {
	idx := map[string]int{}
	driver := map[string]int{}
	for i, inst := range nl.Instances {
		idx[inst.Name] = i
		driver[inst.Output] = i
	}
	picked := map[int]bool{}
	for _, name := range stages {
		i, ok := idx[name]
		if !ok {
			continue
		}
		picked[i] = true
		for _, net := range nl.Instances[i].Inputs {
			if d, ok := driver[net]; ok {
				picked[d] = true
			}
		}
	}
	var out []target
	for i := range picked {
		inst := nl.Instances[i]
		out = append(out, target{inst: inst.Name, typ: inst.Type, out: inst.Output})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].inst < out[b].inst })
	return out
}

// resized is the other drive strength of a cell type.
func resized(typ string) string {
	if base, ok := bytes.CutSuffix([]byte(typ), []byte("_X2")); ok {
		return string(base)
	}
	return typ + "_X2"
}

// edits returns round i's batch. Rounds cycle over the targets, each
// cycle in a seeded order, so every cycle edits every target once and the
// mix of cone sizes is the same for every seed. A round swaps its target
// to the other drive strength (the size alternates from cycle to cycle)
// and sets a seeded load on the target's output.
func (c *ecoCrit) edits(i int) []graph.Edit {
	n := len(c.targets)
	cycle, pos := i/n, i%n
	rng := rand.New(rand.NewPCG(uint64(c.seed), uint64(cycle)))
	t := c.targets[rng.Perm(n)[pos]]
	typ := t.typ
	if cycle%2 == 0 {
		typ = resized(t.typ)
	}
	capRNG := rand.New(rand.NewPCG(uint64(c.seed)^0x9e3779b97f4a7c15, uint64(i)))
	return []graph.Edit{
		{Op: "swap_cell", Inst: t.inst, Type: typ},
		{Op: "set_load", Net: t.out, Cap: fmt.Sprintf("%df", 1+capRNG.IntN(8))},
	}
}

func (c *ecoCrit) request(i int) request {
	body, _ := json.Marshal(service.EcoRequest{Session: ecoSession, Edits: c.edits(i)})
	return request{path: "/v1/eco", body: body}
}

// verify builds the private reference graph and replays rounds [0, n)
// on it, comparing every delta. Outside the traced mode the graph comes
// from cliutil.BuildBackendGraphCtx, the CLIs' and sessions' own
// constructor; the traced mode builds it the same way with the stage
// evaluator wrapped in spans, and keeps it for the traced rounds.
func (c *ecoCrit) verify(ctx context.Context, e *env, n int, tr *tracer) (int, []int, error) {
	a, err := resolve(c432Hybrid(c.c432), e.tech)
	if err != nil {
		return 0, nil, err
	}
	eng := e.srv.Engine()
	c.ev = tr.evalHook(nil, nil)
	if tr == nil {
		if c.ref, _, _, err = cliutil.BuildBackendGraphCtx(ctx, eng, e.tech, a.wl, a.spec, a.primary, a.opt); err != nil {
			return 0, nil, err
		}
	} else {
		plan, err := eng.PlanBackend(ctx, a.spec, a.wl.NL, a.primary, a.opt)
		if err != nil {
			return 0, nil, err
		}
		cfg := plan.GraphConfig(eng.Workers(), func(cellType string) (*csm.Model, error) {
			return modelFor(eng, e.tech, cellType, a.spec.CSM)
		})
		c.ev = tr.evalHook(plan.Eval, plan.Assign)
		cfg.Eval = c.ev.eval
		if c.ref, err = graph.Build(a.wl.NL, plan.Models, a.primary, a.opt, cfg); err != nil {
			return 0, nil, err
		}
		if _, err := c.ev.propagate(ctx, c.ref, setupReq, 0); err != nil {
			return 0, nil, err
		}
	}
	var bad []int
	for i := 0; i < n; i++ {
		ok, err := c.round(ctx, i, nil)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			bad = append(bad, i)
		}
	}
	return n, bad, nil
}

func (c *ecoCrit) replay(ctx context.Context, _ *env, i int, tr *tracer) (bool, error) {
	return c.round(ctx, i, tr)
}

// round applies round i to the reference graph, with spans around
// ApplyBatch, Propagate and the delta marshal under tr, and compares the
// delta with the reply. Rounds must be applied in sequence order.
func (c *ecoCrit) round(ctx context.Context, i int, tr *tracer) (bool, error) {
	if i != c.applied {
		return false, fmt.Errorf("eco-crit: round %d replayed after round %d", i, c.applied-1)
	}
	c.applied++
	root := tr.begin("replay", i, 0)
	defer root.end()
	sp := tr.begin("graph.apply", i, root.id())
	applied, err := c.ref.ApplyBatch(c.edits(i))
	sp.end()
	if err != nil {
		return false, fmt.Errorf("round %d: %w", i, err)
	}
	c.ev.tr = tr
	stats, err := c.ev.propagate(ctx, c.ref, i, root.id())
	if err != nil {
		return false, err
	}
	sp = tr.begin("graph.delta_marshal", i, root.id())
	got, err := graph.MarshalDelta(c.ref.Delta("c432", applied, stats))
	sp.end()
	return err == nil && c.matches(i, got), err
}

func (c *ecoCrit) hygiene(*window) error { return nil }
