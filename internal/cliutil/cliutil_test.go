package cliutil

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/netlist"
	"mcsm/internal/sta"
	"mcsm/internal/wave"
)

func TestParseSIExactBits(t *testing.T) {
	// The suffix must be applied textually: "2.6n" is the correctly
	// rounded 2.6e-9, not the 2.6*1e-9 multiplication residue.
	got, err := ParseSI("2.6n")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := strconv.ParseFloat("2.6e-9", 64)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("ParseSI(2.6n) = %b, want the bits of 2.6e-9", got)
	}
	if v, err := ParseDt(""); err != nil || v != 0 {
		t.Errorf("ParseDt(\"\") = %v, %v; want 0, nil", v, err)
	}
	if _, err := ParseDt("4q"); err == nil {
		t.Error("ParseDt accepted a bad suffix")
	}
	for _, bad := range []string{"0", "-1p", "0p", "-0"} {
		if _, err := ParseDt(bad); err == nil || !strings.Contains(err.Error(), "positive") {
			t.Errorf("ParseDt(%q) error %v, want a must-be-positive error", bad, err)
		}
	}
	if v, err := ParseDt("1e-30"); err != nil || v != 1e-30 {
		t.Errorf("ParseDt(1e-30) = %v, %v; the step-count bound is the run's to enforce", v, err)
	}
}

func TestCharConfig(t *testing.T) {
	for name, want := range map[string]csm.Config{
		"":        csm.FastConfig(),
		"fast":    csm.FastConfig(),
		"default": csm.DefaultConfig(),
		"coarse":  csm.CoarseConfig(),
	} {
		got, err := CharConfig(name)
		if err != nil {
			t.Fatalf("CharConfig(%q): %v", name, err)
		}
		if got.GridCurrent != want.GridCurrent || got.TranDt != want.TranDt {
			t.Errorf("CharConfig(%q) = %+v, want %+v", name, got, want)
		}
	}
	if _, err := CharConfig("turbo"); err == nil {
		t.Error("CharConfig accepted an unknown profile")
	}
}

func TestResolveFormat(t *testing.T) {
	for _, tc := range []struct{ format, path, want string }{
		{"auto", "c432.bench", "bench"},
		{"auto", "c432.BENCH", "bench"},
		{"auto", "c17.net", "net"},
		{"net", "c432.bench", "net"},
		{"bench", "x", "bench"},
	} {
		if got := ResolveFormat(tc.format, tc.path); got != tc.want {
			t.Errorf("ResolveFormat(%q, %q) = %q, want %q", tc.format, tc.path, got, tc.want)
		}
	}
}

func TestParseGenSpec(t *testing.T) {
	spec, err := ParseGenSpec("200:9:3:7:31")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Gates != 200 || spec.Depth != 9 || spec.MaxFanin != 3 || spec.Seed != 7 || spec.Inputs != 31 {
		t.Errorf("full spec parsed as %+v", spec)
	}
	if base := netlist.ISCASSpec(120); base.Gates != 120 {
		t.Fatalf("ISCASSpec(120) = %+v", base)
	}
	if s, err := ParseGenSpec("120"); err != nil || s != netlist.ISCASSpec(120) {
		t.Errorf("bare gate count should take ISCAS defaults: %+v, %v", s, err)
	}
	for _, bad := range []string{"", "x", "1:2:3:4:5:6", "-5", "0"} {
		if _, err := ParseGenSpec(bad); err == nil {
			t.Errorf("ParseGenSpec(%q) accepted", bad)
		}
	}
}

func TestRegisterEngineFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	ef := RegisterEngineFlags(fs)
	if err := fs.Parse([]string{"-parallel", "3", "-cache", "/tmp/x"}); err != nil {
		t.Fatal(err)
	}
	if ef.Parallel != 3 || ef.CacheDir != "/tmp/x" {
		t.Errorf("flags parsed as %+v", ef)
	}
	eng := ef.NewEngine()
	if eng.Workers() != 3 {
		t.Errorf("engine workers = %d, want 3", eng.Workers())
	}
}

func TestParseWorkloadNative(t *testing.T) {
	w, err := ParseWorkload("c17", "net", sta.C17Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if w.Mapped || w.Levels != 3 || len(w.NL.Instances) != 6 {
		t.Errorf("c17 workload: mapped=%v levels=%d stages=%d", w.Mapped, w.Levels, len(w.NL.Instances))
	}
	if h := w.Horizon(0, 4e-9, DefaultSlew); h != 4e-9 {
		t.Errorf("native horizon = %g, want the base default", h)
	}
	prim := w.Stimulus(1.2, DefaultSlew, 4e-9)
	if len(prim) != 5 {
		t.Fatalf("stimulus covers %d nets, want 5", len(prim))
	}
	for net, wv := range prim {
		if wv.First() != 0 || wv.Last() != 1.2 {
			t.Errorf("net %s default drive is not a 0→vdd rise", net)
		}
	}
}

func TestParseWorkloadBenchAndGen(t *testing.T) {
	const bench = `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b)
`
	w, err := ParseWorkload("tiny", "bench", bench)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Mapped || len(w.NL.Instances) != 1 || w.NL.Instances[0].Type != "NAND2" {
		t.Errorf("bench workload mapped to %+v", w.NL.Instances)
	}
	if _, err := ParseWorkload("x", "pdf", "junk"); err == nil {
		t.Error("unknown format accepted")
	}

	g, err := GenWorkload(netlist.ISCASSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Mapped || g.Text == "" || g.Format != "bench" {
		t.Fatalf("gen workload: mapped=%v format=%q textlen=%d", g.Mapped, g.Format, len(g.Text))
	}
	// The carried text must reproduce the identical netlist — the serve
	// probe POSTs it and expects the server to analyze the same circuit.
	g2, err := ParseWorkload(g.Name, g.Format, g.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.NL.Instances) != len(g.NL.Instances) {
		t.Fatalf("re-parsed gen workload has %d stages, want %d", len(g2.NL.Instances), len(g.NL.Instances))
	}
	for i := range g.NL.Instances {
		a, b := g.NL.Instances[i], g2.NL.Instances[i]
		if a.Name != b.Name || a.Type != b.Type || a.Output != b.Output {
			t.Fatalf("instance %d drifted across the text round trip: %+v vs %+v", i, a, b)
		}
	}
	if auto := g.Horizon(0, 4e-9, DefaultSlew); auto < 4e-9 {
		t.Errorf("mapped horizon %g must not shrink below the base", auto)
	}
	if h := g.Horizon(7e-9, 4e-9, DefaultSlew); h != 7e-9 {
		t.Errorf("explicit horizon must win, got %g", h)
	}
}

func TestApplyArrivalSpec(t *testing.T) {
	const vdd, slew, h = 1.2, 80e-12, 4e-9
	out := map[string]wave.Waveform{}
	for _, net := range []string{"a", "b", "c", "d"} {
		out[net] = wave.SaturatedRamp(0, vdd, 1e-9, slew, h)
	}
	err := ApplyArrivalSpec(out, vdd, "a:rise@1n, b:fall@1.2n, c:high, d:low", slew, h)
	if err != nil {
		t.Fatal(err)
	}
	if w := out["a"]; w.First() != 0 || w.Last() != vdd {
		t.Errorf("a is not a rise: %g→%g", w.First(), w.Last())
	}
	if w := out["b"]; w.First() != vdd || w.Last() != 0 {
		t.Errorf("b is not a fall: %g→%g", w.First(), w.Last())
	}
	if w := out["c"]; w.First() != vdd || w.Last() != vdd {
		t.Errorf("c is not held high")
	}
	if w := out["d"]; w.First() != 0 || w.Last() != 0 {
		t.Errorf("d is not held low")
	}
	if err := ApplyArrivalSpec(out, vdd, "", slew, h); err != nil {
		t.Errorf("empty spec must be a no-op, got %v", err)
	}
	for _, bad := range []string{"a", "a:up@1n", "a:rise@1q", "a:rise", "bogus:rise@1n", "zz:low", "a:high,e:low"} {
		if err := ApplyArrivalSpec(out, vdd, bad, slew, h); err == nil {
			t.Errorf("ApplyArrivalSpec(%q) accepted", bad)
		}
	}
	if len(out) != 4 {
		t.Errorf("rejected overrides added nets: %d keys, want 4", len(out))
	}
	if err := ApplyArrivalSpec(out, vdd, "bogus:rise@1n", slew, h); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("unknown-net error does not name the net: %v", err)
	}
}

func TestFmtCounts(t *testing.T) {
	got := FmtCounts(map[string]int{"NAND2": 7, "INV": 3})
	if got != "[INV:3 NAND2:7]" {
		t.Errorf("FmtCounts = %q", got)
	}
	if !strings.HasPrefix(FmtCounts(nil), "[") {
		t.Error("nil counts should render as empty brackets")
	}
}

// TestLoadEditScript covers the -eco file plumbing: a valid script file
// parses, a broken one and a missing one error.
func TestLoadEditScript(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"batches": [[{"op": "set_load", "net": "y", "cap": "2f"}]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadEditScript(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Batches) != 1 || len(s.Batches[0]) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"batches": [[{"op": "explode"}]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEditScript(bad); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := LoadEditScript(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadMCSpec(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"trials": 8, "seed": 7, "sigma_vt": "15m", "batch": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadMCSpec(good)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 8 || s.Seed != 7 || s.Batch != 4 {
		t.Fatalf("parsed %+v", s)
	}
	sv, ss, err := s.Sigmas()
	if err != nil || sv != 15e-3 {
		t.Fatalf("sigmas %v %v %v", sv, ss, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"trials": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMCSpec(bad); err == nil {
		t.Error("zero-trial spec accepted")
	}
	if _, err := LoadMCSpec(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestBuildGraph builds the retained graph for the c17 workload through
// an engine, checks it starts converged, and exercises the
// characterize-on-demand hook with a swap to a type outside the
// netlist's own cells.
func TestBuildGraph(t *testing.T) {
	wl, err := ParseWorkload("c17", "net", sta.C17Netlist)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(1, nil)
	tech := cells.Default130()
	const horizon = 4e-9
	g, _, err := BuildGraphCtx(context.Background(), eng, tech, wl, csm.CoarseConfig(),
		sta.C17Stimulus(tech.Vdd, horizon), sta.Options{Horizon: horizon, Dt: 4e-12})
	if err != nil {
		t.Fatal(err)
	}
	if g.DirtyCount() != 0 {
		t.Fatalf("%d stages dirty after BuildGraphCtx", g.DirtyCount())
	}
	if g.StageEvals() != int64(len(wl.NL.Instances)) {
		t.Errorf("stage evals = %d, want %d", g.StageEvals(), len(wl.NL.Instances))
	}
	// Characterize-on-demand through the engine's cache.
	if err := g.SwapCell("G10", "NOR2"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Models()["NOR2"]; !ok {
		t.Error("NOR2 model not characterized on demand")
	}
	// The graph edits its own clone: the shared workload is untouched.
	if wl.NL.Instances[0].Type != "NAND2" {
		t.Error("edit leaked into the shared workload netlist")
	}
}
