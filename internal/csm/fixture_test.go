package csm

import (
	"sync"
	"testing"

	"mcsm/internal/cells"
)

// Shared characterized models: characterization costs seconds, so tests
// share one model per (cell, kind) pair, built on first use.
var fixtures struct {
	mu     sync.Mutex
	models map[string]*Model
	errs   map[string]error
}

// fixtureModel characterizes (or returns the cached) model of the given
// cell and kind under FastConfig.
func fixtureModel(t testing.TB, cell string, kind Kind) *Model {
	t.Helper()
	key := cell + "/" + kind.String()
	fixtures.mu.Lock()
	defer fixtures.mu.Unlock()
	if fixtures.models == nil {
		fixtures.models = map[string]*Model{}
		fixtures.errs = map[string]error{}
	}
	if err, ok := fixtures.errs[key]; ok && err != nil {
		t.Fatalf("characterize %s: %v", key, err)
	}
	if m, ok := fixtures.models[key]; ok {
		return m
	}
	tech := cells.Default130()
	spec, err := cells.Get(cell)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Characterize(tech, spec, kind, FastConfig())
	fixtures.models[key] = m
	fixtures.errs[key] = err
	if err != nil {
		t.Fatalf("characterize %s: %v", key, err)
	}
	return m
}
