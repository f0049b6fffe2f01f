package artifact

import (
	"os"
	"path/filepath"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/csm"
)

// BenchmarkModelReload times one reload of a characterized NAND2 MCSM
// (csm.FastConfig, the service's default profile) from its binary
// artifact and from its JSON encoding. Both loads validate the model.
func BenchmarkModelReload(b *testing.B) {
	spec, err := cells.Get("NAND2")
	if err != nil {
		b.Fatal(err)
	}
	m, err := csm.Characterize(cells.Default130(), spec, csm.KindMCSM, csm.FastConfig())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	formats := []struct {
		name string
		path string
		save func(string) error
		load func(string) error
	}{
		{"artifact", filepath.Join(dir, "nand2"+Ext),
			func(p string) error { return Save(p, m, 0) },
			func(p string) error { _, err := Load(p, 0); return err }},
		{"json", filepath.Join(dir, "nand2.json"),
			m.Save,
			func(p string) error { _, err := csm.LoadModel(p); return err }},
	}
	for _, f := range formats {
		if err := f.save(f.path); err != nil {
			b.Fatal(err)
		}
		info, err := os.Stat(f.path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.load(f.path); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(info.Size()), "file-B")
		})
	}
}
