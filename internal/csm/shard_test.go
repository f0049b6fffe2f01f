package csm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcsm/internal/artifact"
	"mcsm/internal/cells"
	"mcsm/internal/csm"
)

// shardModels are the characterizations testdata/golden/model_digests.json
// pins (root golden_test.go), under the same names.
var shardModels = []struct {
	name   string
	cell   string
	kind   csm.Kind
	cfg    csm.Config
	shards []int
}{
	{"coarse/INV/SIS-CSM", "INV", csm.KindSIS, csm.CoarseConfig(), []int{1, 2, 3, 8}},
	{"coarse/NAND2/MCSM", "NAND2", csm.KindMCSM, csm.CoarseConfig(), []int{1, 2, 3, 8}},
	{"coarse/NOR2/MCSM", "NOR2", csm.KindMCSM, csm.CoarseConfig(), []int{1, 2, 3, 8}},
	{"coarse-no-internal-miller/NAND2/MCSM", "NAND2", csm.KindMCSM, coarseWith(func(c *csm.Config) { c.NoInternalMiller = true }), []int{1, 2, 3, 8}},
	{"coarse-direct-caps/NAND2/MCSM", "NAND2", csm.KindMCSM, coarseWith(func(c *csm.Config) { c.DirectCaps = true }), []int{1, 2, 3, 8}},
	{"coarse/NOR2/MIS-baseline", "NOR2", csm.KindMISBaseline, csm.CoarseConfig(), []int{1, 2, 3, 8}},
	{"fast/NAND2/MCSM", "NAND2", csm.KindMCSM, csm.FastConfig(), []int{1, 3}},
}

func coarseWith(edit func(*csm.Config)) csm.Config {
	cfg := csm.CoarseConfig()
	edit(&cfg)
	return cfg
}

// settledGoroutines waits for the goroutine count to fall back to want:
// a worker that has signalled its WaitGroup may still be exiting.
func settledGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCharacterizeShardInvariant characterizes each model at several
// shard counts and requires artifact bytes identical to one another and
// to the committed digest of the serial characterization.
func TestCharacterizeShardInvariant(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden/model_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	tech := cells.Default130()
	base := runtime.NumGoroutine()
	for _, sm := range shardModels {
		spec, err := cells.Get(sm.cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sm.shards {
			m, err := csm.CharacterizeShards(tech, spec, sm.kind, sm.cfg, n)
			if err != nil {
				t.Fatalf("%s at %d shards: %v", sm.name, n, err)
			}
			settledGoroutines(t, base)
			b, err := artifact.Encode(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != golden[sm.name] {
				t.Errorf("%s at %d shards: artifact sha256 %s, golden %s", sm.name, n, got, golden[sm.name])
			}
		}
	}
}

// TestCharacterizeShardErrorLowestUnit fails two units of the first
// sharded step and requires the lower unit's error at every shard count,
// even when the higher one fails first.
func TestCharacterizeShardErrorLowestUnit(t *testing.T) {
	defer csm.SetFailUnit(nil)
	csm.SetFailUnit(func(u int) error {
		switch u {
		case 3:
			time.Sleep(20 * time.Millisecond) // let unit 7 fail first
			return errors.New("injected failure at unit 3")
		case 7:
			return errors.New("injected failure at unit 7")
		}
		return nil
	})
	spec, err := cells.Get("NAND2")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	var first string
	for _, n := range []int{1, 2, 3, 8} {
		_, err := csm.CharacterizeShards(cells.Default130(), spec, csm.KindMCSM, csm.CoarseConfig(), n)
		settledGoroutines(t, base)
		if err == nil || !strings.Contains(err.Error(), "unit 3") {
			t.Fatalf("%d shards: err = %v, want the unit 3 failure", n, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("%d shards: error %q differs from the serial %q", n, err, first)
		}
	}
}

// TestShard drives the helper directly: every unit runs exactly once on
// success, the lowest failing unit's error wins, one worker stops at the
// first failure like the serial loop, and every worker has exited on
// return.
func TestShard(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 3, 8} {
		ran := make([]atomic.Int32, 50)
		if err := csm.Shard(workers, len(ran), func(w, u int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("worker %d out of range", w)
			}
			ran[u].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for u := range ran {
			if got := ran[u].Load(); got != 1 {
				t.Errorf("workers=%d: unit %d ran %d times", workers, u, got)
			}
		}
		settledGoroutines(t, base)

		var maxStarted atomic.Int64
		err := csm.Shard(workers, 1000, func(w, u int) error {
			for {
				m := maxStarted.Load()
				if int64(u) <= m || maxStarted.CompareAndSwap(m, int64(u)) {
					break
				}
			}
			switch u {
			case 10:
				time.Sleep(10 * time.Millisecond)
				return errors.New("unit 10")
			case 12:
				return errors.New("unit 12")
			}
			return nil
		})
		if err == nil || err.Error() != "unit 10" {
			t.Errorf("workers=%d: err = %v, want unit 10", workers, err)
		}
		if m := maxStarted.Load(); workers == 1 && m != 10 {
			t.Errorf("one worker ran up to unit %d, want a stop at the failure at 10", m)
		}
		settledGoroutines(t, base)

		if err := csm.Shard(workers, 0, func(w, u int) error { return errors.New("no units") }); err != nil {
			t.Errorf("workers=%d, no units: %v", workers, err)
		}
	}
}
