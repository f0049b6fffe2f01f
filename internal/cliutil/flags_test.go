package cliutil

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
	"mcsm/internal/engine"
	"mcsm/internal/obs"
)

// TestBackendFlagsSpec resolves -backend/-margin/-lib into engine specs
// and rejects the combinations the flags document as invalid.
func TestBackendFlagsSpec(t *testing.T) {
	tech := cells.Default130()
	parse := func(args ...string) (engine.BackendSpec, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		bf := RegisterBackendFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return bf.Spec(tech, csm.CoarseConfig())
	}
	spec, err := parse()
	if err != nil || spec.Kind != engine.BackendCSM || spec.Margin != 0 || spec.Tables != nil {
		t.Errorf("defaults: %+v, %v", spec, err)
	}
	spec, err = parse("-backend", "hybrid", "-margin", "150p")
	if err != nil || spec.Kind != engine.BackendHybrid || spec.Margin != 150e-12 {
		t.Errorf("hybrid 150p: %+v, %v", spec, err)
	}
	lib := filepath.Join("..", "liberty", "testdata", "mcsm_inv_nor2.lib")
	spec, err = parse("-backend", "nldm", "-lib", lib)
	if err != nil || spec.Tables["INV"] == nil || spec.Tables["NOR2"] == nil {
		t.Errorf("-lib tables: %v, %v", spec.Tables, err)
	}
	bad := filepath.Join(t.TempDir(), "bad.lib")
	if err := os.WriteFile(bad, []byte("library (x) {"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-backend", "spice"},
		{"-backend", "nldm", "-margin", "150p"},
		{"-backend", "hybrid", "-margin", "150q"},
		{"-backend", "hybrid", "-margin", "-1p"},
		{"-lib", lib},
		{"-backend", "nldm", "-lib", filepath.Join(t.TempDir(), "absent.lib")},
		{"-backend", "nldm", "-lib", bad},
	} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestLoadWorkload resolves the format from the extension in auto mode
// and names the workload after the file.
func TestLoadWorkload(t *testing.T) {
	wl, err := LoadWorkload(filepath.Join("..", "netlist", "testdata", "c432.bench"), "auto")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name != "c432" || wl.Format != "bench" || !wl.Mapped {
		t.Errorf("loaded %q as %q (mapped %v)", wl.Name, wl.Format, wl.Mapped)
	}
	if _, err := LoadWorkload(filepath.Join(t.TempDir(), "absent.net"), "auto"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestStartProfiles writes both profiles on stop and reports an
// unwritable CPU profile path up front.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", p, err)
		}
	}
	if _, err := StartProfiles(filepath.Join(dir, "no", "such", "dir", "cpu.pprof"), ""); err == nil {
		t.Error("unwritable cpu profile path accepted")
	}
}

// TestStartTrace threads a root span through the context only when the
// -trace flag is set.
func TestStartTrace(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	on := RegisterTraceFlag(fs)
	if err := fs.Parse([]string{"-trace"}); err != nil || !*on {
		t.Fatalf("-trace parsed as %v, %v", *on, err)
	}
	ctx, tr := StartTrace(context.Background(), *on, "run")
	if tr == nil || obs.SpanFrom(ctx) == nil {
		t.Fatal("enabled trace has no root span in the context")
	}
	if got := tr.Finish(); got.Name != "run" {
		t.Errorf("trace root %q", got.Name)
	}
	ctx, tr = StartTrace(context.Background(), false, "run")
	if tr != nil || obs.SpanFrom(ctx) != nil {
		t.Error("disabled trace recorded a span")
	}
}
