package engine

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/units"
)

// invConfig is the cheapest sensible characterization (the inverter's SIS
// model has only two table axes) so the cache tests stay fast under -race.
func invConfig() csm.Config {
	return csm.Config{
		GridCurrent: 3,
		GridCap:     2,
		SlewTimes:   []float64{100 * units.PS},
		TranDt:      2 * units.PS,
	}
}

func invSpec(t *testing.T) cells.Spec {
	t.Helper()
	spec, err := cells.Get("INV")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestModelCacheConcurrentGets hammers one key from many goroutines (run
// under -race in CI): exactly one characterization must run, every caller
// must observe the same *csm.Model, and the join-on-in-flight Gets must
// count as hits.
func TestModelCacheConcurrentGets(t *testing.T) {
	cache := NewModelCache()
	tech := cells.Default130()
	spec := invSpec(t)

	const n = 16
	models := make([]*csm.Model, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			models[i], errs[i] = cache.Get(tech, spec, csm.KindSIS, invConfig())
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", i, errs[i])
		}
		if models[i] != models[0] {
			t.Fatalf("get %d returned a different model pointer", i)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	if st.HitRate() <= 0 {
		t.Errorf("hit rate = %g, want > 0 after re-characterizing the same cell", st.HitRate())
	}
}

// TestModelCacheDistinctKeys: different kinds/configs must not collide.
func TestModelCacheDistinctKeys(t *testing.T) {
	cache := NewModelCache()
	tech := cells.Default130()
	spec := invSpec(t)

	a, err := cache.Get(tech, spec, csm.KindSIS, invConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := invConfig()
	cfg2.GridCurrent = 4
	b, err := cache.Get(tech, spec, csm.KindSIS, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("distinct configs shared one cache entry")
	}
	if st := cache.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses / 2 entries", st)
	}
}

// TestModelCacheSpill characterizes into a spill directory, then reloads
// through a fresh cache (as a new process would) without re-characterizing.
func TestModelCacheSpill(t *testing.T) {
	dir := t.TempDir()
	tech := cells.Default130()
	spec := invSpec(t)

	c1 := NewSpillCache(dir)
	m1, err := c1.Get(tech, spec, csm.KindSIS, invConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DiskHits != 0 || st.Characterized != 1 {
		t.Errorf("first run stats = %+v, want 0 disk hits / 1 characterization", st)
	}
	// The spill is written in both formats: the binary artifact (primary)
	// and the legacy JSON (fallback + human inspection).
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || !strings.HasSuffix(files[0].Name(), ".json") || !strings.HasSuffix(files[1].Name(), ".mcsm") {
		t.Fatalf("spill dir contents: %v", files)
	}

	c2 := NewSpillCache(dir)
	m2, err := c2.Get(tech, spec, csm.KindSIS, invConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Misses != 1 {
		t.Errorf("reload stats = %+v, want 1 miss satisfied from disk", st)
	}
	// The reload must have taken the binary path, and timed it.
	if st.BinaryReloads != 1 || st.JSONReloads != 0 || st.Characterized != 0 {
		t.Errorf("reload stats = %+v, want the binary artifact to serve the miss", st)
	}
	if lat := c2.ReloadLatency(); lat.Count != 1 {
		t.Errorf("reload latency count = %d, want 1", lat.Count)
	}
	// Only the first cache characterized, and timed it.
	if n1, n2 := c1.CharacterizeLatency().Count, c2.CharacterizeLatency().Count; n1 != 1 || n2 != 0 {
		t.Errorf("characterization latency counts = %d, %d, want 1, 0", n1, n2)
	}
	if m2.Cell != m1.Cell || m2.Vdd != m1.Vdd || m2.Kind != m1.Kind {
		t.Errorf("reloaded model differs: %s/%v vs %s/%v", m2.Cell, m2.Kind, m1.Cell, m1.Kind)
	}
	// The reloaded tables must evaluate identically.
	pt := []float64{0.6, 0.6}
	if got, want := m2.Io.At(pt...), m1.Io.At(pt...); got != want {
		t.Errorf("reloaded Io(0.6,0.6) = %g, want %g", got, want)
	}
}

// TestModelCacheCorruptSpill mangles the spill file between runs: the
// reload must reject it with a diagnostic — never surface the decode
// failure to the caller or return a half-decoded model — transparently
// re-characterize, and repair the file so the next process reloads cleanly.
func TestModelCacheCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	tech := cells.Default130()
	spec := invSpec(t)

	m1, err := NewSpillCache(dir).Get(tech, spec, csm.KindSIS, invConfig())
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 2 {
		t.Fatalf("spill dir contents: %v (err %v)", files, err)
	}
	jsonPath := dir + "/" + files[0].Name() // sorted: .json before .mcsm
	binPath := dir + "/" + files[1].Name()
	origJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	origBin, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(t *testing.T) {
		t.Helper()
		if err := os.WriteFile(jsonPath, origJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(binPath, origBin, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loggingCache := func(logged *bytes.Buffer, logMu *sync.Mutex) *ModelCache {
		c := NewSpillCache(dir)
		c.SetLogf(func(format string, args ...any) {
			logMu.Lock()
			fmt.Fprintf(logged, format+"\n", args...)
			logMu.Unlock()
		})
		return c
	}

	// A corrupt binary artifact with an intact JSON spill falls back to the
	// JSON reload — a disk hit, not a re-characterization — and re-promotes
	// the binary in place.
	t.Run("binary corrupt, json fallback", func(t *testing.T) {
		restore(t)
		if err := os.WriteFile(binPath, origBin[:len(origBin)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		var logged bytes.Buffer
		var logMu sync.Mutex
		c := loggingCache(&logged, &logMu)
		m, err := c.Get(tech, spec, csm.KindSIS, invConfig())
		if err != nil {
			t.Fatalf("Get surfaced the binary spill failure: %v", err)
		}
		if m.Cell != m1.Cell {
			t.Fatalf("fallback model is broken: %+v", m)
		}
		st := c.Stats()
		if st.SpillRejects != 1 || st.DiskHits != 1 || st.JSONReloads != 1 || st.BinaryReloads != 0 || st.Characterized != 0 {
			t.Errorf("stats = %+v, want 1 reject + 1 JSON disk hit", st)
		}
		if !strings.Contains(logged.String(), "rejecting corrupt spill file") {
			t.Errorf("no rejection diagnostic in %q", logged.String())
		}
		// The promotion must have repaired the binary: a fresh cache takes
		// the fast path again.
		c2 := NewSpillCache(dir)
		if _, err := c2.Get(tech, spec, csm.KindSIS, invConfig()); err != nil {
			t.Fatal(err)
		}
		if st := c2.Stats(); st.BinaryReloads != 1 || st.SpillRejects != 0 {
			t.Errorf("post-promotion stats = %+v, want a clean binary reload", st)
		}
	})

	// Binary-only corruptions (no JSON fallback present): every artifact
	// failure mode must be rejected with a diagnostic and transparently
	// re-characterized — never surfaced, never a half-decoded model.
	binCorruptions := []struct {
		name   string
		mangle func(d []byte) []byte
	}{
		// A crashed writer leaves a prefix whose CRC cannot verify.
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		// Bit rot in the payload breaks the checksum.
		{"bit rot", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)/2] ^= 0x10
			return out
		}},
		// A future format version must not be misread.
		{"version skew", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[4]++
			return out
		}},
		{"empty file", func([]byte) []byte { return nil }},
	}
	for _, tc := range binCorruptions {
		t.Run("binary "+tc.name, func(t *testing.T) {
			restore(t)
			if err := os.Remove(jsonPath); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(binPath, tc.mangle(origBin), 0o644); err != nil {
				t.Fatal(err)
			}
			var logged bytes.Buffer
			var logMu sync.Mutex
			c := loggingCache(&logged, &logMu)
			m, err := c.Get(tech, spec, csm.KindSIS, invConfig())
			if err != nil {
				t.Fatalf("Get surfaced the spill failure instead of re-characterizing: %v", err)
			}
			if m.Cell != m1.Cell || m.Io == nil {
				t.Fatalf("re-characterized model is broken: %+v", m)
			}
			st := c.Stats()
			if st.SpillRejects != 1 || st.DiskHits != 0 || st.Misses != 1 || st.Characterized != 1 {
				t.Errorf("stats = %+v, want 1 spill reject re-characterized", st)
			}
			if !strings.Contains(logged.String(), "rejecting corrupt spill file") {
				t.Errorf("diagnostic %q does not mention the rejection", logged.String())
			}
			// The bad file must have been repaired: a fresh cache reloads.
			c2 := NewSpillCache(dir)
			if _, err := c2.Get(tech, spec, csm.KindSIS, invConfig()); err != nil {
				t.Fatal(err)
			}
			if st := c2.Stats(); st.DiskHits != 1 || st.BinaryReloads != 1 || st.SpillRejects != 0 {
				t.Errorf("post-repair stats = %+v, want a clean binary disk hit", st)
			}
		})
	}

	// Legacy JSON corruptions with no binary artifact present — the
	// original SpillRejects contract, unchanged.
	jsonCorruptions := []struct {
		name    string
		mangle  func(data []byte) []byte
		wantLog string
	}{
		// A crashed writer leaves a JSON prefix that no longer parses.
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }, "rejecting corrupt spill file"},
		// Valid JSON, but not a model: decodes then fails validation.
		{"empty object", func([]byte) []byte { return []byte("{}") }, "rejecting corrupt spill file"},
		// Decodes and validates, but belongs to a different cell.
		{"wrong cell", func(d []byte) []byte {
			return bytes.Replace(d, []byte(`"cell": "INV"`), []byte(`"cell": "NOR9"`), 1)
		}, "want \"INV\""},
	}
	for _, tc := range jsonCorruptions {
		t.Run("json "+tc.name, func(t *testing.T) {
			restore(t)
			if err := os.Remove(binPath); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jsonPath, tc.mangle(origJSON), 0o644); err != nil {
				t.Fatal(err)
			}
			var logged bytes.Buffer
			var logMu sync.Mutex
			c := loggingCache(&logged, &logMu)
			m, err := c.Get(tech, spec, csm.KindSIS, invConfig())
			if err != nil {
				t.Fatalf("Get surfaced the spill failure instead of re-characterizing: %v", err)
			}
			if m.Cell != m1.Cell || m.Io == nil {
				t.Fatalf("re-characterized model is broken: %+v", m)
			}
			st := c.Stats()
			if st.SpillRejects != 1 || st.DiskHits != 0 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 spill reject, 0 disk hits, 1 miss", st)
			}
			if !strings.Contains(logged.String(), tc.wantLog) {
				t.Errorf("diagnostic %q does not mention %q", logged.String(), tc.wantLog)
			}
			// The bad file must have been repaired: a fresh cache reloads.
			c2 := NewSpillCache(dir)
			if _, err := c2.Get(tech, spec, csm.KindSIS, invConfig()); err != nil {
				t.Fatal(err)
			}
			if st := c2.Stats(); st.DiskHits != 1 || st.SpillRejects != 0 {
				t.Errorf("post-repair stats = %+v, want a clean disk hit", st)
			}
		})
	}

	// Merely missing files are a plain miss, not a reject.
	if err := os.Remove(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(binPath); err != nil {
		t.Fatal(err)
	}
	c := NewSpillCache(dir)
	if _, err := c.Get(tech, spec, csm.KindSIS, invConfig()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.SpillRejects != 0 {
		t.Errorf("missing spill file counted as a reject: %+v", st)
	}
}

// TestKeyExcludesBuilder: two specs differing only in the Build func (a
// function address, unstable across runs) must map to the same key.
func TestKeyExcludesBuilder(t *testing.T) {
	tech := cells.Default130()
	spec := invSpec(t)
	other := spec
	other.Build = nil
	if Key(tech, spec, csm.KindSIS, invConfig()) != Key(tech, other, csm.KindSIS, invConfig()) {
		t.Error("Key depends on the Build func pointer")
	}
	if Key(tech, spec, csm.KindSIS, invConfig()) == Key(tech, spec, csm.KindMCSM, invConfig()) {
		t.Error("Key ignores the model kind")
	}
}
