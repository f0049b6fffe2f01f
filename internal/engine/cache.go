// Package engine is the production evaluation layer on top of the
// characterized current-source models: a concurrency-safe characterization
// cache (ModelCache) and a level-parallel timing scheduler (Engine) that
// runs independent stages of each topological level of a netlist on a
// worker pool while staying bit-identical to the serial sta.Analyze path.
//
// The paper's value proposition — a characterized CSM makes stage
// evaluation cheap enough to replace transistor-level simulation in
// full-chip timing — only pays off when the (expensive, SPICE-backed)
// characterization is amortized across many evaluations. ModelCache is
// that amortization point: every consumer (the STA engine, the experiment
// session, the CLIs, the benches) characterizes through one shared,
// singleflight-deduplicated registry with optional JSON spill to disk.
package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mcsm/internal/artifact"
	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/obs"
)

// ModelCache memoizes csm.Characterize results keyed by the full identity
// of a characterization: technology, cell spec, model kind, and config.
// Concurrent Gets of the same key are deduplicated singleflight-style —
// exactly one goroutine characterizes while the others block on the result.
// With a spill directory set, models are persisted as binary artifacts
// (internal/artifact) with a JSON copy alongside, and reloaded instead of
// re-characterized across processes.
type ModelCache struct {
	dir string // spill directory ("" = in-memory only)

	mu           sync.Mutex
	logf         func(format string, args ...any)
	entries      map[string]*cacheEntry
	hits         int64 // Gets served from memory (including joins on in-flight work)
	misses       int64 // Gets that had to build (characterize or reload)
	diskHits     int64 // subset of misses satisfied by a spill-file reload
	spillRejects int64 // spill files rejected as corrupt/mismatched and re-characterized

	// Reload-format attribution: how each miss was ultimately satisfied.
	binaryReloads int64         // spill reloads served by the binary artifact
	jsonReloads   int64         // spill reloads served by the legacy JSON fallback
	characterized int64         // misses that ran the full SPICE-backed characterization
	reloadHist    obs.Histogram // latency of successful spill reloads (disk → validated model)
	charHist      obs.Histogram // duration of every csm.Characterize call, failed ones included
}

type cacheEntry struct {
	ready chan struct{} // closed when model/err are set
	model *csm.Model
	err   error
}

// NewModelCache returns an in-memory cache.
func NewModelCache() *ModelCache {
	return &ModelCache{entries: map[string]*cacheEntry{}}
}

// SetLogf installs (or, with nil, clears) the diagnostics sink: it
// receives problems the cache recovers from on its own — today exactly
// one case, a corrupt spill file being rejected and re-characterized.
// Safe to call concurrently with Gets; the func itself must be
// concurrency-safe (log.Printf and testing.T.Logf are).
func (c *ModelCache) SetLogf(f func(format string, args ...any)) {
	c.mu.Lock()
	c.logf = f
	c.mu.Unlock()
}

// NewSpillCache returns a cache that additionally persists characterized
// models (binary artifact plus JSON) under dir and reloads them on later
// misses (also across processes). dir is created on first spill; an empty
// dir yields a plain in-memory cache, so callers can pass an optional flag
// through unconditionally.
func NewSpillCache(dir string) *ModelCache {
	c := NewModelCache()
	c.dir = dir
	return c
}

// Key fingerprints one characterization identity. The spec's Build func is
// deliberately excluded (a function address is not stable across runs);
// every field that influences the characterized tables is included.
func Key(tech cells.Tech, spec cells.Spec, kind csm.Kind, cfg csm.Config) string {
	return fmt.Sprintf("tech{%s vdd=%g n=%+v p=%+v wn=%g wp=%g}|cell{%s in=%v model=%v int=%q nch=%t npin=%v drive=%g}|kind=%d|cfg=%+v",
		tech.Name, tech.Vdd, tech.NMOS, tech.PMOS, tech.WNMin, tech.WPMin,
		spec.Name, spec.Inputs, spec.ModelInputs, spec.Internal,
		spec.NonControllingHigh, spec.NonControllingPin, spec.Drive,
		int(kind), cfg)
}

// Outcome describes how a ModelCache.GetOutcome call was satisfied —
// the label the tracing layer attaches to per-model spans.
type Outcome string

const (
	// OutcomeHit is a Get served from memory, including joins on
	// in-flight characterizations of the same key.
	OutcomeHit Outcome = "hit"
	// OutcomeDisk is a miss satisfied by reloading a spill file.
	OutcomeDisk Outcome = "disk"
	// OutcomeCharacterized is a miss that ran the full SPICE-backed
	// characterization.
	OutcomeCharacterized Outcome = "characterized"
)

// Get returns the model for (tech, spec, kind, cfg), characterizing it at
// most once per cache. A Get that joins an in-flight characterization of
// the same key blocks until it completes and counts as a hit. Errors are
// cached alongside models: characterization is deterministic in its inputs,
// so a failed key fails every caller identically.
func (c *ModelCache) Get(tech cells.Tech, spec cells.Spec, kind csm.Kind, cfg csm.Config) (*csm.Model, error) {
	m, _, err := c.GetOutcome(tech, spec, kind, cfg)
	return m, err
}

// GetOutcome is Get plus the way the lookup was satisfied, so callers
// can attribute the cost (a memory hit is ns, a disk reload is ms, a
// characterization is seconds).
func (c *ModelCache) GetOutcome(tech cells.Tech, spec cells.Spec, kind csm.Kind, cfg csm.Config) (*csm.Model, Outcome, error) {
	key := Key(tech, spec, kind, cfg)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.model, OutcomeHit, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	var outcome Outcome
	e.model, outcome, e.err = c.build(key, tech, spec, kind, cfg)
	close(e.ready)
	return e.model, outcome, e.err
}

// build satisfies a cache miss: reload from a spill artifact when possible,
// otherwise characterize (and spill, best-effort). The binary artifact is
// tried first (the serving format — raw float bits, CRC-verified, several
// times faster to parse), then the legacy JSON spill as a fallback; a JSON
// reload is promoted to a binary artifact in place so the next process
// takes the fast path. A spill file that fails to decode or validate —
// truncated by a crashed writer, mangled on disk, or belonging to a
// different cell or characterization identity — must never surface its
// decode error to the caller or, worse, hand back a structurally broken
// model: it is rejected with a clear diagnostic (Logf + the SpillRejects
// counter) and the key is transparently re-characterized, overwriting the
// bad file.
func (c *ModelCache) build(key string, tech cells.Tech, spec cells.Spec, kind csm.Kind, cfg csm.Config) (*csm.Model, Outcome, error) {
	var binPath, jsonPath string
	var keyHash uint64
	if c.dir != "" {
		keyHash = keyFNV(key)
		base := c.spillBase(spec, kind, keyHash)
		binPath, jsonPath = base+artifact.Ext, base+".json"

		start := time.Now()
		m, err := artifact.Load(binPath, keyHash)
		switch {
		case err == nil && m.Cell == spec.Name:
			c.reloaded(&c.binaryReloads, start)
			return m, OutcomeDisk, nil
		case err == nil:
			c.reject(binPath, fmt.Errorf("model is for cell %q, want %q", m.Cell, spec.Name))
		case !errors.Is(err, fs.ErrNotExist):
			c.reject(binPath, err)
		}

		start = time.Now()
		m, err = csm.LoadModel(jsonPath)
		switch {
		case err == nil && m.Cell == spec.Name:
			c.reloaded(&c.jsonReloads, start)
			// Promote: the very bytes we just validated, re-packed as the
			// binary artifact, so this key never pays the JSON parse again.
			_ = artifact.Save(binPath, m, keyHash)
			return m, OutcomeDisk, nil
		case err == nil:
			c.reject(jsonPath, fmt.Errorf("model is for cell %q, want %q", m.Cell, spec.Name))
		case !errors.Is(err, fs.ErrNotExist):
			c.reject(jsonPath, err)
		}
	}
	start := time.Now()
	m, err := csm.Characterize(tech, spec, kind, cfg)
	c.charHist.ObserveSince(start)
	c.mu.Lock()
	c.characterized++
	c.mu.Unlock()
	if err != nil {
		return nil, OutcomeCharacterized, err
	}
	if binPath != "" {
		if mkErr := os.MkdirAll(c.dir, 0o755); mkErr == nil {
			// Spill is best-effort: a full disk must not fail the Get. The
			// binary artifact is the primary spill; JSON is written alongside
			// it for older readers and human inspection.
			_ = artifact.Save(binPath, m, keyHash)
			_ = m.Save(jsonPath)
		}
	}
	return m, OutcomeCharacterized, nil
}

// reloaded books a successful spill reload: the shared disk-hit counter,
// the per-format attribution counter, and the reload-latency histogram.
func (c *ModelCache) reloaded(formatCounter *int64, start time.Time) {
	c.mu.Lock()
	c.diskHits++
	*formatCounter++
	c.mu.Unlock()
	c.reloadHist.ObserveSince(start)
}

// reject records a corrupt or mismatched spill file. The file itself is
// left in place — the re-characterization that follows overwrites it, and
// if that spill fails too the next process gets the same (logged) miss
// rather than a surprising hole.
func (c *ModelCache) reject(path string, cause error) {
	c.mu.Lock()
	c.spillRejects++
	logf := c.logf
	c.mu.Unlock()
	if logf != nil {
		logf("engine: rejecting corrupt spill file %s (re-characterizing): %v", path, cause)
	}
}

// keyFNV is the FNV-64a fingerprint of a characterization key — the hash
// spill filenames carry and binary artifacts embed as their identity.
func keyFNV(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// spillBase names the spill file for a key, sans extension (.mcsm for the
// binary artifact, .json for the legacy fallback): readable prefix plus the
// FNV-64a fingerprint of the full key, so distinct configs of the same cell
// never collide.
func (c *ModelCache) spillBase(spec cells.Spec, kind csm.Kind, keyHash uint64) string {
	slug := strings.ToLower(strings.ReplaceAll(kind.String(), "-", ""))
	return filepath.Join(c.dir, fmt.Sprintf("%s_%s_%016x", strings.ToLower(spec.Name), slug, keyHash))
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits         int64 // Gets served from memory (incl. in-flight joins)
	Misses       int64 // Gets that built the entry
	DiskHits     int64 // misses satisfied by spill reload instead of characterization
	SpillRejects int64 // corrupt/mismatched spill files rejected and re-characterized
	Entries      int   // distinct keys resident

	// Reload-format attribution (BinaryReloads+JSONReloads == DiskHits;
	// Characterized counts full SPICE-backed builds, including failures).
	BinaryReloads int64 // reloads served by the binary .mcsm artifact
	JSONReloads   int64 // reloads served by the legacy JSON fallback
	Characterized int64 // misses that ran the full characterization
}

// HitRate is Hits/(Hits+Misses), 0 when the cache is unused.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters.
func (c *ModelCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits,
		SpillRejects: c.spillRejects, Entries: len(c.entries),
		BinaryReloads: c.binaryReloads, JSONReloads: c.jsonReloads,
		Characterized: c.characterized,
	}
}

// ReloadLatency snapshots the spill reload-latency histogram (time from
// opening a spill artifact to a validated in-memory model). Zero Count
// means no reload has happened yet.
func (c *ModelCache) ReloadLatency() obs.HistSnapshot {
	return c.reloadHist.Snapshot()
}

// CharacterizeLatency snapshots the histogram of characterization times:
// one sample per csm.Characterize call the cache made, the cost a cold
// request for a new cell or profile pays.
func (c *ModelCache) CharacterizeLatency() obs.HistSnapshot {
	return c.charHist.Snapshot()
}
