package graph

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"mcsm/internal/csm"
	"mcsm/internal/obs"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

// Propagate is one dataflow schedule whose commits stay in level order.
//
// The level-synchronous schedule evaluates the dirty stages of a level
// once every lower level has committed, then commits the level. This
// schedule produces the same bits with two freedoms:
//
//   - A stage starts as soon as that schedule would certainly evaluate
//     it: it is dirty, or a fanin's output (final or live) already
//     differs bit-wise from the net's retained waveform; and its input
//     cutoff certainly fails: its type or load generation changed, it
//     has no record, or a final or live input already differs from its
//     record. Every input is final (the stage producing it committed,
//     settled or finished) or, for a live stage, live: its producer,
//     also live, is still being solved and publishes its output as it
//     records it. Nothing runs speculatively, so every count equals
//     that schedule's.
//   - A free worker takes a stage whose inputs are all final before one
//     that would stream, lowest level first, then lowest index.
//
// A stage reads its inputs through a map of its own, never the retained
// state, and results commit only at the frontier level, in index order,
// exactly as the level schedule commits them.

// taskState is a stage's progress within one Propagate.
type taskState uint8

const (
	idle      taskState = iota
	running             // being evaluated
	evaluated           // evaluated (with or without error), not committed
	skipped             // dirty, and its inputs match its record
	settled             // not dirty at its level: its output stays
)

// task is one stage's schedule state within a Propagate, allocated when
// the stage is first queued; a stage without one is idle.
type task struct {
	state   taskState
	queued  bool // in propagation.cands
	live    bool // started while an input was live
	dirtyOK bool // certainly dirty at its level
	cutOK   bool // certainly fails the input cutoff
	changed bool // evaluated: output differs from the retained waveform
	fanin   []int

	out       wave.Waveform
	switching int
	err       error

	waves map[string]wave.Waveform // the stage's input map while it runs

	// A running live stage publishes its output into stream; published
	// watches each publication, on the stage's goroutine, and wakes the
	// scheduler once the output first differs from the net's retained
	// waveform ret: the moment the stage's fanout becomes certainly dirty.
	stream   *wave.Stream
	ret      wave.Waveform // the retained output (empty: none)
	checked  int           // samples already found equal to ret
	diverged atomic.Bool
	wake     chan<- struct{}
}

func (t *task) published(prefix wave.Waveform) {
	if t.diverged.Load() {
		return
	}
	if len(prefix.T) > len(t.ret.T) {
		t.diverge()
		return
	}
	for i := t.checked; i < len(prefix.T); i++ {
		if !sameSample(prefix, t.ret, i) {
			t.diverge()
			return
		}
	}
	t.checked = len(prefix.T)
}

func (t *task) diverge() {
	t.diverged.Store(true)
	select {
	case t.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// The readiness of a queued stage.
type readiness uint8

const (
	notYet  readiness = iota // cannot be decided yet
	drop                     // will not be dirty at its level
	skip                     // dirty, and the input cutoff will skip it
	ready                    // will be evaluated; every input is final
	streams                  // will be evaluated; some input is live
)

// propagation is one Propagate call's schedule.
type propagation struct {
	g       *TimingGraph
	ctx     context.Context
	span    *obs.Span
	levels  [][]int
	fanouts map[string][][2]int
	tasks   []*task
	next    int   // lowest level not yet committed
	failed  int   // lowest level with a failed stage (len(levels) while none)
	cands   []int // queued stages: not started or decided
	busy    int   // stages running
	done    chan int
	wake    chan struct{}
	stop    error // the context's error, seen before a start

	levelSpan *obs.Span // the frontier level's span
	spanLevel int

	stats   Stats
	changed map[string]bool
}

// Propagate drains the dirty set and returns what changed. Results are
// bit-identical at any pool width, to the level-synchronous schedule
// and to a cold analysis. The context is checked before every start and
// at every commit; running stages finish, and none outlives the call.
//
// On a stage error nothing of the failing level commits and the dirty set
// retains the failing level and everything below it, so the graph stays
// consistent: a later edit can repair the fault and Propagate again. The
// error is that of the lowest-index failing stage of the lowest failing
// level, as the serial schedule finds it.
func (g *TimingGraph) Propagate(ctx context.Context) (Stats, error) {
	levels, err := g.nl.Levels()
	if err != nil {
		return Stats{}, err
	}
	p := g.newPropagation(ctx, levels)
	err = p.run()
	for p.busy > 0 {
		p.finish(<-p.done)
	}
	if p.levelSpan != nil {
		p.levelSpan.End()
	}
	clear(g.tasks)
	if err != nil {
		g.stashChanged(p.changed)
		return p.stats, err
	}
	stats := p.stats
	stats.ChangedNets = make([]string, 0, len(p.changed))
	for net := range p.changed {
		stats.ChangedNets = append(stats.ChangedNets, net)
	}
	sort.Strings(stats.ChangedNets)
	return stats, nil
}

// stashChanged re-queues net-change records when a propagation aborts, so
// the next successful Propagate still reports them in its delta.
func (g *TimingGraph) stashChanged(changed map[string]bool) {
	for net := range changed {
		g.pendingChanged[net] = true
	}
}

func (g *TimingGraph) newPropagation(ctx context.Context, levels [][]int) *propagation {
	n := len(g.nl.Instances)
	if len(g.tasks) != n {
		g.tasks, g.level = make([]*task, n), make([]int32, n)
	}
	for l, level := range levels {
		for _, idx := range level {
			g.level[idx] = int32(l)
		}
	}
	changed := g.pendingChanged
	g.pendingChanged = map[string]bool{}
	p := &propagation{
		g:         g,
		ctx:       ctx,
		span:      obs.SpanFrom(ctx),
		levels:    levels,
		fanouts:   g.nl.Fanouts(),
		tasks:     g.tasks,
		failed:    len(levels),
		done:      make(chan int, g.workers), // one slot per running stage
		wake:      make(chan struct{}, 1),
		spanLevel: -1,
		stats:     Stats{StagesTotal: n},
		changed:   changed,
	}
	for idx := range g.dirty {
		p.enqueue(idx)
	}
	return p
}

// run schedules until every level has committed, a level fails, or the
// context ends.
func (p *propagation) run() error {
	for {
		if err := p.advance(); err != nil || p.next == len(p.levels) {
			return err
		}
		if p.fill() {
			continue
		}
		if p.stop != nil {
			return p.stop
		}
		if p.busy == 0 {
			panic("graph: propagation stalled with an undecided dirty stage")
		}
		select {
		case idx := <-p.done:
			p.finish(idx)
		case <-p.wake:
		}
	}
}

// advance commits every decided level at the frontier. It returns the
// context's error, or the frontier level's error once every dirty stage
// below the failing one is decided.
func (p *propagation) advance() error {
	for p.next < len(p.levels) {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		dirty, decided, err := p.frontier()
		if dirty > 0 && p.spanLevel != p.next {
			p.levelSpan = p.span.Start("level")
			p.spanLevel = p.next
			p.levelSpan.LabelInt("level", int64(p.next))
			p.levelSpan.LabelInt("dirty", int64(dirty))
		}
		if err != nil || !decided {
			return err
		}
		if dirty > 0 {
			p.commit()
		}
		p.next++
	}
	return nil
}

// frontier inspects the frontier level, whose dirty set is final: its
// dirty count, whether every dirty stage is decided, and the error of
// the first failed stage in index order when every dirty stage before
// it is decided.
func (p *propagation) frontier() (dirty int, decided bool, err error) {
	decided = true
	for _, idx := range p.levels[p.next] {
		if !p.g.dirty[idx] {
			continue
		}
		dirty++
		if !decided || err != nil {
			continue
		}
		switch t := p.tasks[idx]; {
		case t == nil || t.state == idle || t.state == running:
			decided = false
		case t.state == evaluated:
			err = t.err
		}
	}
	return dirty, decided, err
}

// commit applies the frontier level's decided stages in index order, as
// the level schedule does, and dirties the fanout of every changed net.
func (p *propagation) commit() {
	g := p.g
	evalBase, skipBase := p.stats.StagesEvaluated, p.stats.StagesSkipped
	for _, idx := range p.levels[p.next] {
		if !g.dirty[idx] {
			continue
		}
		delete(g.dirty, idx)
		t := p.tasks[idx]
		if t.state == skipped {
			p.stats.StagesSkipped++
			continue
		}
		p.stats.StagesEvaluated++
		if t.live {
			p.stats.StagesStreamed++
		}
		inst := &g.nl.Instances[idx]
		g.lastEval[idx] = g.record(idx)
		g.switching[idx] = t.switching
		if !t.changed {
			p.stats.StagesConverged++
			continue
		}
		g.waves[inst.Output] = t.out
		p.changed[inst.Output] = true
		for _, fo := range p.fanouts[inst.Output] {
			g.dirty[fo[0]] = true
			p.enqueue(fo[0])
		}
	}
	p.levelSpan.LabelInt("evaluated", int64(p.stats.StagesEvaluated-evalBase))
	p.levelSpan.LabelInt("skipped", int64(p.stats.StagesSkipped-skipBase))
	p.levelSpan.End()
	p.levelSpan = nil
}

// record is the input record of a stage evaluated at its level: its
// type, its output's load generation and its retained inputs, which are
// final once the levels below have committed.
func (g *TimingGraph) record(idx int) stageInputs {
	inst := &g.nl.Instances[idx]
	in := make([]wave.Waveform, len(inst.Inputs))
	for j, net := range inst.Inputs {
		in[j] = g.waves[net]
	}
	return stageInputs{typ: inst.Type, loadGen: g.loadGen[inst.Output], in: in}
}

// enqueue makes an undecided stage a candidate.
func (p *propagation) enqueue(idx int) {
	t := p.tasks[idx]
	if t == nil {
		t = &task{}
		p.tasks[idx] = t
	}
	if !t.queued && t.state == idle {
		t.queued = true
		p.cands = append(p.cands, idx)
	}
}

// fill settles the candidates it can decide without evaluating them and
// starts the best startable one on each free worker. It reports whether
// it settled or started anything.
func (p *propagation) fill() bool {
	progress := false
	for {
		best, bestKind, settledAny := -1, notYet, false
		for i := 0; i < len(p.cands); {
			idx := p.cands[i]
			k := p.classify(idx)
			switch k {
			case drop, skip:
				t := p.tasks[idx]
				t.state = settled
				if k == skip {
					t.state = skipped
				}
				p.unqueue(i)
				settledAny = true
				continue
			case ready, streams:
				if best < 0 || p.before(idx, k, best, bestKind) {
					best, bestKind = idx, k
				}
			}
			i++
		}
		if settledAny {
			// A settled output is final: rescan before choosing.
			progress = true
			continue
		}
		if best < 0 || p.busy == p.g.workers || p.stop != nil {
			return progress
		}
		if err := p.ctx.Err(); err != nil {
			p.stop = err
			return progress
		}
		for i, idx := range p.cands {
			if idx == best {
				p.unqueue(i)
				break
			}
		}
		p.start(best, bestKind == streams)
		if p.g.workers == 1 {
			// The stage ran inline: commit before choosing the next, so
			// one worker runs the level schedule itself.
			return true
		}
		progress = true
	}
}

func (p *propagation) unqueue(i int) {
	p.tasks[p.cands[i]].queued = false
	last := len(p.cands) - 1
	p.cands[i] = p.cands[last]
	p.cands = p.cands[:last]
}

// before orders startable stages: all-final inputs first, then lowest
// level, then lowest index.
func (p *propagation) before(a int, ka readiness, b int, kb readiness) bool {
	if ka != kb {
		return ka == ready
	}
	if la, lb := p.g.level[a], p.g.level[b]; la != lb {
		return la < lb
	}
	return a < b
}

// The state of a stage input during the schedule.
type inputState uint8

const (
	unknown inputState = iota // its producer may still run
	final                     // its value will not change
	live                      // its producer is a live stage being solved
)

// input classifies the input driven by stage d (−1: a primary input or
// an undriven net).
func (p *propagation) input(d int) inputState {
	if d < 0 || int(p.g.level[d]) < p.next {
		return final
	}
	t := p.tasks[d]
	switch {
	case t == nil || t.state == idle:
		if int(p.g.level[d]) == p.next && !p.g.dirty[d] {
			return final
		}
	case t.state == skipped || t.state == settled:
		return final
	case t.state == evaluated:
		if t.err == nil {
			return final
		}
	case t.state == running:
		if t.stream != nil {
			return live
		}
	}
	return unknown
}

// finalWave is the value of a final input on net driven by d, and
// whether the net has one.
func (p *propagation) finalWave(d int, net string) (wave.Waveform, bool) {
	if d >= 0 && int(p.g.level[d]) >= p.next {
		if t := p.tasks[d]; t != nil && t.state == evaluated {
			return t.out, true
		}
	}
	w, ok := p.g.waves[net]
	return w, ok
}

// classify decides what the level schedule will certainly do with a
// queued stage, from what is known now.
func (p *propagation) classify(idx int) readiness {
	g := p.g
	if int(g.level[idx]) > p.failed {
		return notYet // never committed: a lower level fails
	}
	t := p.tasks[idx]
	inst := &g.nl.Instances[idx]
	if t.fanin == nil {
		t.fanin = make([]int, len(inst.Inputs))
		for j, net := range inst.Inputs {
			t.fanin[j] = -1
			if d, ok := g.driver[net]; ok {
				t.fanin[j] = d
			}
		}
	}
	allFinal := true
	for _, d := range t.fanin {
		switch p.input(d) {
		case unknown:
			return notYet
		case live:
			if !g.mayStream(idx) {
				return notYet
			}
			allFinal = false
		}
	}
	if !t.dirtyOK {
		t.dirtyOK = g.dirty[idx] || p.faninChanged(t)
	}
	if !t.dirtyOK {
		if allFinal {
			return drop
		}
		return notYet
	}
	if !t.cutOK {
		t.cutOK = p.cutoffFails(idx, t)
	}
	switch {
	case !t.cutOK && allFinal:
		return skip
	case !t.cutOK:
		return notYet
	case allFinal:
		return ready
	}
	return streams
}

// faninChanged reports whether a producer not yet committed already has
// an output that differs from its net's retained waveform.
func (p *propagation) faninChanged(t *task) bool {
	for _, d := range t.fanin {
		if d < 0 || int(p.g.level[d]) < p.next || p.tasks[d] == nil {
			continue
		}
		switch dt := p.tasks[d]; dt.state {
		case evaluated:
			if dt.err == nil && dt.changed {
				return true
			}
		case running:
			if dt.diverged.Load() {
				return true
			}
		}
	}
	return false
}

// cutoffFails reports whether the stage's input cutoff certainly fails:
// its record is missing or stale, or an input already known differs
// from the recorded one.
func (p *propagation) cutoffFails(idx int, t *task) bool {
	g := p.g
	inst := &g.nl.Instances[idx]
	rec := &g.lastEval[idx]
	if rec.in == nil || rec.typ != inst.Type || rec.loadGen != g.loadGen[inst.Output] || len(rec.in) != len(inst.Inputs) {
		return true
	}
	for j, d := range t.fanin {
		switch p.input(d) {
		case final:
			if w, _ := p.finalWave(d, inst.Inputs[j]); !waveEqual(rec.in[j], w) {
				return true
			}
		case live:
			// The producer's watch compares its samples with the retained
			// output, which a record aliases after every successful
			// propagation; any other record waits for the final output.
			if dt := p.tasks[d]; sameSlices(rec.in[j], dt.ret) && dt.diverged.Load() {
				return true
			}
		}
	}
	return false
}

// start evaluates a decided stage: on the calling goroutine with one
// worker, otherwise on a goroutine of its own that reports to p.done.
// The stage's load is fetched here, on the scheduling goroutine.
func (p *propagation) start(idx int, streamed bool) {
	g := p.g
	t := p.tasks[idx]
	inst := &g.nl.Instances[idx]
	load := g.loadFor(inst.Output)
	waves := g.takeMap()
	for j, net := range inst.Inputs {
		d := t.fanin[j]
		if p.input(d) == live {
			waves[net] = p.tasks[d].stream.Waveform()
		} else if w, ok := p.finalWave(d, net); ok {
			waves[net] = w
		}
	}
	if g.mayStream(idx) {
		ret, ok := g.waves[inst.Output]
		t.ret, t.wake = ret, p.wake
		t.diverged.Store(!ok)
		t.stream = wave.NewStream(t.published)
		waves[inst.Output] = t.stream.Waveform()
	}
	t.state, t.live, t.waves = running, streamed, waves
	p.busy++
	for _, fo := range p.fanouts[inst.Output] {
		p.enqueue(fo[0])
	}
	if g.workers == 1 {
		g.run(idx, t, load)
		p.finish(idx)
		return
	}
	go func() {
		g.run(idx, t, load)
		p.done <- idx
	}()
}

// run evaluates a started stage on its own input map and closes its
// output stream.
func (g *TimingGraph) run(idx int, t *task, load csm.Load) {
	var t0 time.Time
	if g.evalHist != nil {
		t0 = time.Now()
	}
	t.out, t.switching, t.err = g.eval(g.nl, g.models, idx, t.waves, load, g.vdd, g.opt)
	if g.evalHist != nil {
		g.evalHist.ObserveSince(t0)
	}
	if t.err == nil {
		g.stageEvals.Add(1)
	}
	if t.stream != nil {
		t.stream.Close(t.out, t.err)
	}
}

// finish records a stage's evaluation on the scheduling goroutine.
func (p *propagation) finish(idx int) {
	g := p.g
	t := p.tasks[idx]
	p.busy--
	t.state = evaluated
	g.putMap(t.waves)
	t.waves = nil
	if t.err != nil {
		if l := int(g.level[idx]); l < p.failed {
			p.failed = l
		}
		return
	}
	old, ok := g.waves[g.nl.Instances[idx].Output]
	t.changed = !ok || !waveEqual(old, t.out)
}

// mayStream reports whether a stage may read live inputs and publish its
// output: a declared live stage of an MIS analysis on more than one
// worker.
func (g *TimingGraph) mayStream(idx int) bool {
	return g.workers > 1 && g.opt.Mode == sta.ModeMIS && g.live != nil && g.live(idx)
}

// setEval installs a stage evaluator and its live declaration; a nil
// evaluator is the CSM stage solve, live for every stage.
func (g *TimingGraph) setEval(eval EvalFunc, live func(int) bool) {
	g.eval, g.customEval, g.live = eval, eval != nil, live
	if eval == nil {
		g.eval, g.live = sta.EvalStageWithLoad, everyStage
	}
}

func everyStage(int) bool { return true }

// takeMap returns an empty input map; putMap takes one back once its
// stage has returned. Even a map of a few entries holds a whole 8-slot
// group (about 600 B here), and an ECO round on a hybrid c432 session
// starts about 24 stages: allocating a map per start raised perfbench
// eco-crit's alloc_mb_per_req from 0.410 to 0.427 MB.
func (g *TimingGraph) takeMap() map[string]wave.Waveform {
	if n := len(g.maps); n > 0 {
		m := g.maps[n-1]
		g.maps = g.maps[:n-1]
		return m
	}
	return make(map[string]wave.Waveform, 4)
}

func (g *TimingGraph) putMap(m map[string]wave.Waveform) {
	clear(m)
	g.maps = append(g.maps, m)
}
