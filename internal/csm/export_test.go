package csm

// CharacterizeShards is Characterize on an explicit shard count, for the
// external tests that check models are bit-identical at any count.
var CharacterizeShards = characterize

// Shard is the shard helper itself.
var Shard = shard

// SetFailUnit installs (or, with nil, removes) a hook that runs before
// every shard unit and fails the unit with its error.
func SetFailUnit(f func(u int) error) { failUnit = f }
