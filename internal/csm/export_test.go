package csm

import (
	"sync/atomic"

	"mcsm/internal/spice"
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
