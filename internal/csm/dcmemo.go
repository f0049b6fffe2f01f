package csm

import (
	"math"
	"sync"
	"sync/atomic"

	"mcsm/internal/spice"
	"mcsm/internal/table"
	"mcsm/internal/wave"
)

// A stage's DC operating point is memoized per model. Every capacitance
// of the model (Cm, Co, CN, the internal-Miller couplings) is open at DC,
// and so is a capacitive load, so the stage's DC system holds only the
// input sources, the Io (and, for KindMCSM, IN) current sources and the
// solver's gmin. For a given model kind, Io and IN tables (whose rank
// fixes the input count) and Vdd (which seeds VN at Vdd/2), the system
// and its Newton iterates are then a function of the input values at the
// start time alone, and the memoized vector is bit for bit what
// Engine.DCAt would return.
//
// Loads that conduct at DC or add unknowns (RCLoad, PiLoad, any other
// Load) change that system, so their stages bypass the memo.

// stageDCGen bounds one generation of a model's memo. When the current
// generation fills, it becomes the previous one and the one before is
// dropped; a hit in the previous generation moves back to the current
// one. A model therefore holds at most 2·stageDCGen operating points,
// and a working set of up to stageDCGen keys never leaves it.
const stageDCGen = 128

// dcKey identifies one stage DC system. The tables are part of the key,
// not just the model that owns the memo: a by-value Model copy shares
// the memo pointer, and a copy with another Io table must miss.
type dcKey struct {
	kind  Kind
	io    *table.Table
	in    *table.Table
	vdd   uint64
	input [2]uint64 // Float64bits of each input's value at the start time
}

// dcMemo is one model's two-generation operating-point store. The
// package-level stageDC.mu guards it and Model.dc.
type dcMemo struct {
	cur, old map[dcKey][]float64
}

// stageDC holds the lock every memo shares and the process-wide counts.
// A lookup is a map access under the lock, microseconds against the
// milliseconds of the stage solve around it.
var stageDC struct {
	mu                     sync.Mutex
	hits, misses, bypassed atomic.Int64
}

// stageDCAt is the DC solve a memo miss or a bypassed stage runs.
var stageDCAt = (*spice.Engine).DCAt

// StageDCStats counts stage DC operating points since the process
// started, over every model: memo hits, misses (solved, then stored when
// the solve succeeded) and stages whose load bypasses the memo.
type StageDCStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Bypassed int64 `json:"bypassed"`
}

// ReadStageDCStats returns the process-wide stage DC counts.
func ReadStageDCStats() StageDCStats {
	return StageDCStats{
		Hits:     stageDC.hits.Load(),
		Misses:   stageDC.misses.Load(),
		Bypassed: stageDC.bypassed.Load(),
	}
}

// stageX0 returns the stage's initial state at start: the operating point
// eng.DCAt(start) computes, from m's memo when the load leaves the DC
// system unchanged. A hit returns the stored vector and a miss stores the
// one DCAt returned, so the caller only reads it (Engine.RunFrom does).
func stageX0(eng *spice.Engine, m *Model, inputs []wave.Waveform, load Load, start float64) ([]float64, error) {
	if !dcOpen(load) {
		stageDC.bypassed.Add(1)
		return stageDCAt(eng, start)
	}
	k := dcKey{kind: m.Kind, io: m.Io, in: m.IN, vdd: math.Float64bits(m.Vdd)}
	for i, w := range inputs {
		k.input[i] = math.Float64bits(w.At(start))
	}
	stageDC.mu.Lock()
	x, ok := m.dcMemo().get(k)
	stageDC.mu.Unlock()
	if ok {
		stageDC.hits.Add(1)
		return x, nil
	}
	stageDC.misses.Add(1)
	x, err := stageDCAt(eng, start)
	if err != nil {
		return nil, err
	}
	stageDC.mu.Lock()
	m.dcMemo().put(k, x)
	stageDC.mu.Unlock()
	return x, nil
}

// dcOpen reports whether a load stamps nothing in DC and adds no unknown:
// no load, lumped and receiver capacitances, and any mix of them.
func dcOpen(l Load) bool {
	switch l := l.(type) {
	case nil, CapLoad, ReceiverLoad:
		return true
	case MultiLoad:
		for _, part := range l {
			if !dcOpen(part) {
				return false
			}
		}
		return true
	}
	return false
}

// dcMemo returns the model's memo, creating it on first use. The caller
// holds stageDC.mu.
func (m *Model) dcMemo() *dcMemo {
	if m.dc == nil {
		m.dc = &dcMemo{cur: map[dcKey][]float64{}}
	}
	return m.dc
}

func (d *dcMemo) get(k dcKey) ([]float64, bool) {
	if x, ok := d.cur[k]; ok {
		return x, true
	}
	x, ok := d.old[k]
	if ok {
		d.put(k, x)
	}
	return x, ok
}

func (d *dcMemo) put(k dcKey, x []float64) {
	if len(d.cur) >= stageDCGen {
		d.old, d.cur = d.cur, make(map[dcKey][]float64, stageDCGen)
	}
	d.cur[k] = x
}
