package graph

import (
	"slices"

	"mcsm/internal/wave"
)

// Dirty returns the stages awaiting re-evaluation, sorted.
func Dirty(g *TimingGraph) []int {
	out := make([]int, 0, len(g.dirty))
	for idx := range g.dirty {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// PrimaryWaves returns the current primary-input drive (reflecting
// SetArrival edits): what a cold analysis of the edited graph starts
// from.
func PrimaryWaves(g *TimingGraph) map[string]wave.Waveform {
	out := make(map[string]wave.Waveform, len(g.nl.PrimaryIn))
	for _, net := range g.nl.PrimaryIn {
		if w, ok := g.waves[net]; ok {
			out[net] = w
		}
	}
	return out
}
