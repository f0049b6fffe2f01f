package csm

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// stageSolveAllocs bounds a warmed fixed-step stage solve: the output
// column, plus five small objects around it: the Result, its column
// headers, the kept index, the StageResult and the capacitive load's
// element. The memoized DC point is read in place.
const stageSolveAllocs = 1 + 5

// TestStageSolveAllocs: once a model's pool holds a bench and its memo
// the stage's DC point, a solve allocates its output column and a few
// small objects around it: no time column, no engine workspace, no table
// cursors.
func TestStageSolveAllocs(t *testing.T) {
	m := fixtureModel(t, "NAND2", KindMCSM)
	inputs, _ := memoInputs(m, "rail")
	load := Load(CapLoad(2e-15))
	g := mustGrid(t, 0, memoStop, memoDt)
	got := warmAllocs(func() {
		if _, err := SimulateStageOut(m, inputs, load, g, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > stageSolveAllocs {
		t.Errorf("warm stage solve made %v allocations, want at most %d", got, stageSolveAllocs)
	}
}

// warmAllocs returns the allocations of one call of solve on a warm
// pool: the fewest over several testing.AllocsPerRun measurements, each
// after a warm-up call. A sync.Pool can come back empty — a collection
// empties it, a pooled item can sit in another P's private slot, and
// under -race Put drops one item in four at random — and a solve that
// finds it empty builds a new bench, so the fewest is the warm count.
func warmAllocs(solve func()) float64 {
	best := math.Inf(1)
	for range 8 {
		best = min(best, testing.AllocsPerRun(1, solve))
	}
	return best
}

// poolJob is one stage solve of TestStageBenchPoolInterleaving: a model,
// its load, and its inputs, each either a fixed waveform or the output of
// an earlier job (from).
type poolJob struct {
	m     *Model
	load  Load
	fixed []wave.Waveform
	from  []int // from[i] >= 0: input i is job from[i]'s output
}

// TestStageBenchPoolInterleaving: solves of two models with different
// loads (capacitive, receiver, RC, which adds an unknown), run from warm
// pools by 2 and 4 workers, each reading its upstream stage's output live
// while that stage is still being solved, give outputs bit-identical to a
// solve on a freshly built stage circuit and engine.
func TestStageBenchPoolInterleaving(t *testing.T) {
	nand := fixtureModel(t, "NAND2", KindMCSM)
	nor := fixtureModel(t, "NOR2", KindMCSM)
	vdd := nand.Vdd
	g := mustGrid(t, 0, memoStop, memoDt)
	rise := wave.SaturatedRamp(0, vdd, 30e-12, 50e-12, memoStop)
	fall := wave.SaturatedRamp(vdd, 0, 50e-12, 70e-12, memoStop)
	loads := []Load{
		CapLoad(2e-15),
		MultiLoad{CapLoad(1e-15), ReceiverLoad{Model: nor, InputIndex: 1, Count: 2}},
		RCLoad{R: 200, C: 3e-15},
		ReceiverLoad{Model: nand, InputIndex: 0, Count: 1},
	}
	// Chains of three stages alternating the models, each stage's first
	// input the stage before it; every chain starts from its own ramps.
	var jobs []poolJob
	for c := 0; c < 6; c++ {
		head := len(jobs)
		jobs = append(jobs, poolJob{m: nand, load: loads[c%len(loads)], fixed: []wave.Waveform{rise, fall}, from: []int{-1, -1}})
		jobs = append(jobs, poolJob{m: nor, load: loads[(c+1)%len(loads)], fixed: []wave.Waveform{{}, wave.Constant(0, 0, memoStop)}, from: []int{head, -1}})
		jobs = append(jobs, poolJob{m: nand, load: loads[(c+2)%len(loads)], fixed: []wave.Waveform{{}, fall}, from: []int{head + 1, -1}})
	}

	// References: each stage on a circuit and engine of its own, in order.
	want := make([]wave.Waveform, len(jobs))
	for j, job := range jobs {
		want[j] = freshStageOut(t, job.m, job.inputs(want), job.load, g)
	}

	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Warm both pools on other inputs and loads first.
			for j, job := range jobs[:4] {
				if _, err := SimulateStageOut(job.m, job.inputs(want), loads[(j+3)%len(loads)], g, nil); err != nil {
					t.Fatal(err)
				}
			}
			streams := make([]*wave.Stream, len(jobs))
			for j := range streams {
				streams[j] = wave.NewStream(nil)
			}
			got := make([]wave.Waveform, len(jobs))
			next := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range next {
						job := jobs[j]
						in := job.inputs(nil)
						for i, f := range job.from {
							if f >= 0 {
								in[i] = streams[f].Waveform()
							}
						}
						out, err := SimulateStageOut(job.m, in, job.load, g, streams[j])
						streams[j].Close(out, err)
						if err != nil {
							t.Errorf("job %d: %v", j, err)
						}
						got[j] = out
					}
				}()
			}
			// Jobs go out in order, so every stage's producer has started
			// before it: a reader blocked on a live input always has a
			// running writer.
			for j := range jobs {
				next <- j
			}
			close(next)
			wg.Wait()
			for j := range jobs {
				requireSameWave(t, fmt.Sprintf("job %d (%s, %T)", j, jobs[j].m.Cell, jobs[j].load), got[j], want[j])
			}
		})
	}
}

// inputs returns the job's input waveforms, taking the outputs of earlier
// jobs from outs (left empty when outs is nil).
func (job poolJob) inputs(outs []wave.Waveform) []wave.Waveform {
	in := append([]wave.Waveform(nil), job.fixed...)
	for i, f := range job.from {
		if f >= 0 && outs != nil {
			in[i] = outs[f]
		}
	}
	return in
}

// freshStageOut solves a stage the way a model's first solve does, on a
// circuit and engine built for it alone, with the DC point solved rather
// than read from the memo.
func freshStageOut(t *testing.T, m *Model, inputs []wave.Waveform, load Load, g *spice.Grid) wave.Waveform {
	t.Helper()
	c, _, out, err := buildStage(m, inputs, load)
	if err != nil {
		t.Fatal(err)
	}
	eng := spice.NewEngine(c, spice.DefaultOptions())
	x0, err := eng.DCAt(g.Start())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunFrom(x0, g, nil, int(out)-1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Wave(out)
}
