package csm

import (
	"sync/atomic"
	"testing"

	"mcsm/internal/spice"
	"mcsm/internal/wave"
)

// CharacterizeShards is Characterize on an explicit shard count, for the
// external tests that check models are bit-identical at any count.
var CharacterizeShards = characterize

// Shard is the shard helper itself.
var Shard = shard

// SetFailUnit installs (or, with nil, removes) a hook that runs before
// every shard unit and fails the unit with its error.
func SetFailUnit(f func(u int) error) { failUnit = f }

// CountStageDC makes every stage DC solve (a memo miss or a stage that
// bypasses the memo) count itself, until restore runs.
func CountStageDC() (calls func() int64, restore func()) {
	var n atomic.Int64
	orig := stageDCAt
	stageDCAt = func(e *spice.Engine, t float64) ([]float64, error) {
		n.Add(1)
		return orig(e, t)
	}
	return n.Load, func() { stageDCAt = orig }
}

// buildStage wires a fresh stage circuit for inputs and load, outside any
// model's pool: the circuit a first solve of the model builds.
func buildStage(m *Model, inputs []wave.Waveform, load Load) (*spice.Circuit, *Cell, spice.Node, error) {
	b, err := newStageBench(m)
	if err != nil {
		return nil, nil, 0, err
	}
	b.bind(inputs, load)
	return b.ckt, b.cell, b.out, nil
}

// mustGrid is spice.NewGrid for a window the test knows is valid.
func mustGrid(t testing.TB, start, stop, dt float64) *spice.Grid {
	t.Helper()
	g, err := spice.NewGrid(start, stop, dt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
