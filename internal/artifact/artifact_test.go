package artifact

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mcsm/internal/csm"
	"mcsm/internal/table"
)

// fillTable builds a rank-len(axisNames) table over small strictly
// increasing grids, with deterministic data that exercises exact-bit
// preservation: negatives, denormal-scale magnitudes, and a negative zero.
func fillTable(t testing.TB, axisNames []string, pts int, seed float64) *table.Table {
	t.Helper()
	axes := make([]table.Axis, len(axisNames))
	for i, name := range axisNames {
		p := make([]float64, pts)
		for j := range p {
			p[j] = -0.1 + float64(j)*(0.3+0.01*float64(i))
		}
		axes[i] = table.Axis{Name: name, Points: p}
	}
	tab, err := table.New(axes...)
	if err != nil {
		t.Fatalf("table.New: %v", err)
	}
	for i := range tab.Data {
		v := seed * float64(i+1) * 1.7e-5
		switch i % 7 {
		case 1:
			v = -v
		case 2:
			v *= 1e-300 // far below normal magnitudes: bit-exactness, not %g luck
		case 3:
			v = math.Copysign(0, -1)
		}
		tab.Data[i] = v
	}
	return tab
}

// sisModel is a minimal structurally valid single-input model (rank 2).
func sisModel(t testing.TB) *csm.Model {
	t.Helper()
	ax2 := []string{"A", "out"}
	m := &csm.Model{
		Kind:   csm.KindSIS,
		Cell:   "INV",
		Vdd:    1.2,
		Inputs: []string{"A"},
		DeltaV: 0.1,
		Io:     fillTable(t, ax2, 3, 1.0),
		Co:     fillTable(t, ax2, 3, 2.0),
		Cm:     []*table.Table{fillTable(t, ax2, 3, 3.0)},
		CIn:    []*table.Table{fillTable(t, []string{"A"}, 4, 4.0)},
		CPin:   []*table.Table{fillTable(t, []string{"A"}, 4, 5.0)},
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("SIS fixture invalid: %v", err)
	}
	return m
}

// mcsmModel is a structurally valid two-input MCSM model (rank 4) with held
// pins and the full internal-Miller extension — every optional field set.
func mcsmModel(t testing.TB) *csm.Model {
	t.Helper()
	ax4 := []string{"A", "B", "N", "out"}
	m := &csm.Model{
		Kind:     csm.KindMCSM,
		Cell:     "NAND2",
		Vdd:      1.2,
		Inputs:   []string{"A", "B"},
		Held:     map[string]float64{"S1": 0, "S0": 1.2},
		Internal: "n1",
		DeltaV:   0.1,
		Io:       fillTable(t, ax4, 2, 1.0),
		IN:       fillTable(t, ax4, 2, 2.0),
		Co:       fillTable(t, ax4, 2, 3.0),
		CN:       fillTable(t, ax4, 2, 4.0),
		Cm:       []*table.Table{fillTable(t, ax4, 2, 5.0), fillTable(t, ax4, 2, 6.0)},
		CIn:      []*table.Table{fillTable(t, []string{"A"}, 3, 7.0), fillTable(t, []string{"B"}, 3, 8.0)},
		CPin:     []*table.Table{fillTable(t, []string{"A"}, 3, 9.0), fillTable(t, []string{"B"}, 3, 10.0)},
		CmN:      []*table.Table{fillTable(t, ax4, 2, 11.0), fillTable(t, ax4, 2, 12.0)},
		CmNO:     fillTable(t, ax4, 2, 13.0),
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("MCSM fixture invalid: %v", err)
	}
	return m
}

// bitsEqual compares float64s by bit pattern: -0 vs +0 and every denormal
// must survive the codec exactly.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func tablesEqual(t *testing.T, label string, a, b *table.Table) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: presence mismatch (%v vs %v)", label, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if len(a.Axes) != len(b.Axes) {
		t.Fatalf("%s: rank %d vs %d", label, len(a.Axes), len(b.Axes))
	}
	for i := range a.Axes {
		if a.Axes[i].Name != b.Axes[i].Name {
			t.Fatalf("%s: axis %d name %q vs %q", label, i, a.Axes[i].Name, b.Axes[i].Name)
		}
		if len(a.Axes[i].Points) != len(b.Axes[i].Points) {
			t.Fatalf("%s: axis %d has %d vs %d points", label, i, len(a.Axes[i].Points), len(b.Axes[i].Points))
		}
		for j := range a.Axes[i].Points {
			if !bitsEqual(a.Axes[i].Points[j], b.Axes[i].Points[j]) {
				t.Fatalf("%s: axis %d point %d bits differ", label, i, j)
			}
		}
	}
	if len(a.Data) != len(b.Data) {
		t.Fatalf("%s: data length %d vs %d", label, len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if !bitsEqual(a.Data[i], b.Data[i]) {
			t.Fatalf("%s: data[%d] bits differ: %x vs %x", label, i,
				math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
}

func tableSlicesEqual(t *testing.T, label string, a, b []*table.Table) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d tables", label, len(a), len(b))
	}
	for i := range a {
		tablesEqual(t, label, a[i], b[i])
	}
}

func modelsEqual(t *testing.T, a, b *csm.Model) {
	t.Helper()
	if a.Kind != b.Kind || a.Cell != b.Cell || a.Internal != b.Internal {
		t.Fatalf("identity mismatch: %v/%s/%s vs %v/%s/%s",
			a.Kind, a.Cell, a.Internal, b.Kind, b.Cell, b.Internal)
	}
	if !bitsEqual(a.Vdd, b.Vdd) || !bitsEqual(a.DeltaV, b.DeltaV) {
		t.Fatalf("Vdd/DeltaV bits differ")
	}
	if len(a.Inputs) != len(b.Inputs) {
		t.Fatalf("inputs: %v vs %v", a.Inputs, b.Inputs)
	}
	for i := range a.Inputs {
		if a.Inputs[i] != b.Inputs[i] {
			t.Fatalf("inputs: %v vs %v", a.Inputs, b.Inputs)
		}
	}
	if len(a.Held) != len(b.Held) {
		t.Fatalf("held: %v vs %v", a.Held, b.Held)
	}
	for k, v := range a.Held {
		w, ok := b.Held[k]
		if !ok || !bitsEqual(v, w) {
			t.Fatalf("held[%q]: %v vs %v (present %v)", k, v, w, ok)
		}
	}
	tablesEqual(t, "Io", a.Io, b.Io)
	tablesEqual(t, "IN", a.IN, b.IN)
	tablesEqual(t, "Co", a.Co, b.Co)
	tablesEqual(t, "CN", a.CN, b.CN)
	tablesEqual(t, "CmNO", a.CmNO, b.CmNO)
	tableSlicesEqual(t, "Cm", a.Cm, b.Cm)
	tableSlicesEqual(t, "CIn", a.CIn, b.CIn)
	tableSlicesEqual(t, "CPin", a.CPin, b.CPin)
	tableSlicesEqual(t, "CmN", a.CmN, b.CmN)
}

func TestRoundTripBitExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		model   *csm.Model
		keyHash uint64
	}{
		{"sis", sisModel(t), 0xdeadbeefcafef00d},
		{"mcsm", mcsmModel(t), 42},
		{"unkeyed", sisModel(t), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := Encode(tc.model, tc.keyHash)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, keyHash, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if keyHash != tc.keyHash {
				t.Fatalf("keyHash = %x, want %x", keyHash, tc.keyHash)
			}
			modelsEqual(t, tc.model, got)
			// The decoded model must be usable, not just structurally equal:
			// interpolation strides are rebuilt, so lookups agree bit-for-bit.
			if tc.model.Kind == csm.KindSIS {
				if a, b := tc.model.Io.At(0.05, 0.2), got.Io.At(0.05, 0.2); !bitsEqual(a, b) {
					t.Fatalf("interpolated Io differs: %v vs %v", a, b)
				}
			}
		})
	}
}

// TestJSONEquivalence pins the pack/unpack contract: converting a model
// through the binary artifact and through the JSON export codec yields
// bit-identical models, in both directions.
func TestJSONEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model *csm.Model
	}{
		{"sis", sisModel(t)},
		{"mcsm", mcsmModel(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// binary → model
			bin, err := Encode(tc.model, 7)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			fromBin, _, err := Decode(bin)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			// JSON → model
			js, err := json.Marshal(tc.model)
			if err != nil {
				t.Fatalf("json.Marshal: %v", err)
			}
			fromJSON := new(csm.Model)
			if err := json.Unmarshal(js, fromJSON); err != nil {
				t.Fatalf("json.Unmarshal: %v", err)
			}
			modelsEqual(t, fromBin, fromJSON)
			// JSON-loaded model → binary → model: the fallback path's output
			// re-packs into the same artifact bytes.
			rebin, err := Encode(fromJSON, 7)
			if err != nil {
				t.Fatalf("re-Encode: %v", err)
			}
			if string(rebin) != string(bin) {
				t.Fatalf("artifact bytes differ after a JSON round trip")
			}
		})
	}
}

func TestSaveLoad(t *testing.T) {
	m := mcsmModel(t)
	path := filepath.Join(t.TempDir(), "nand2"+Ext)
	const key = 0x1122334455667788
	if err := Save(path, m, key); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path, key)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	modelsEqual(t, m, got)

	// Load with wantKey=0 skips the key check.
	if _, err := Load(path, 0); err != nil {
		t.Fatalf("unkeyed Load: %v", err)
	}
	// A mismatched expected key is the cross-replica identity guard.
	if _, err := Load(path, key+1); !errors.Is(err, ErrFormat) {
		t.Fatalf("Load with wrong key: err = %v, want ErrFormat", err)
	}
	// Missing file surfaces the I/O error, not ErrFormat.
	if _, err := Load(filepath.Join(t.TempDir(), "absent"+Ext), 0); err == nil || errors.Is(err, ErrFormat) {
		t.Fatalf("Load of missing file: err = %v, want plain I/O error", err)
	}
}

// refit recomputes the CRC trailer after a deliberate payload mutation, so
// rejection tests exercise the structural decoder, not just the checksum.
func refit(data []byte) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:],
		crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

func TestDecodeRejects(t *testing.T) {
	valid, err := Encode(mcsmModel(t), 99)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	t.Run("every_truncation", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, _, err := Decode(valid[:n]); !errors.Is(err, ErrFormat) {
				t.Fatalf("Decode of %d-byte prefix: err = %v, want ErrFormat", n, err)
			}
		}
	})

	t.Run("every_bit_flip_is_caught", func(t *testing.T) {
		// Flip one bit per byte across the artifact: magic, version, key,
		// payload, or CRC — every single-bit corruption must be rejected.
		for i := 0; i < len(valid); i++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 1 << (i % 8)
			if _, _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d decoded successfully", i)
			}
		}
	})

	mutate := func(name string, f func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if _, _, err := Decode(f(valid)); !errors.Is(err, ErrFormat) {
				t.Fatalf("err = %v, want ErrFormat", err)
			}
		})
	}
	mutate("bad_magic", func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[0] = 'X'
		return refit(out)
	})
	mutate("version_skew", func(b []byte) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(out[4:], Version+1)
		return refit(out)
	})
	mutate("crc_mismatch", func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)-1] ^= 0xff
		return out
	})
	mutate("unknown_kind_code", func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[16] = 0xee // kind code sits right after magic+version+keyHash
		return refit(out)
	})
	mutate("trailing_garbage", func(b []byte) []byte {
		out := append([]byte(nil), b[:len(b)-4]...)
		out = append(out, 0xab, 0xcd)
		return refit(append(out, 0, 0, 0, 0))
	})
	mutate("payload_bits_with_fixed_crc", func(b []byte) []byte {
		// Corrupt the cell-name length varint so the structural parse — with
		// a valid checksum — must still reject.
		out := append([]byte(nil), b...)
		out[17] = 0xff
		return refit(out)
	})
	t.Run("empty", func(t *testing.T) {
		if _, _, err := Decode(nil); !errors.Is(err, ErrFormat) {
			t.Fatalf("err = %v, want ErrFormat", err)
		}
	})
}

// TestDecodeRejectsInvalidStructure corrupts the model semantically (valid
// framing, structurally inconsistent payload) — csm.Model.Validate is the
// last gate.
func TestDecodeRejectsInvalidStructure(t *testing.T) {
	m := sisModel(t)
	m.Kind = csm.KindMCSM // rank-2 tables under an MCSM kind cannot validate
	e := &encoder{}
	e.buf = append(e.buf, Magic[:]...)
	e.u32(Version)
	e.u64(0)
	e.u8(kindCodes[m.Kind])
	e.str(m.Cell)
	e.f64(m.Vdd)
	e.uvarint(len(m.Inputs))
	for _, in := range m.Inputs {
		e.str(in)
	}
	e.uvarint(0) // held
	e.str(m.Internal)
	e.f64(m.DeltaV)
	for _, tab := range []*table.Table{m.Io, nil, m.Co, nil, nil} {
		if err := e.table(tab); err != nil {
			t.Fatal(err)
		}
	}
	for _, ts := range [][]*table.Table{m.Cm, m.CIn, m.CPin, nil} {
		if err := e.tables(ts); err != nil {
			t.Fatal(err)
		}
	}
	e.u32(crc32.ChecksumIEEE(e.buf))
	if _, _, err := Decode(e.buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("structurally invalid payload: err = %v, want ErrFormat", err)
	}
}

func TestEncodeRejectsInvalidModel(t *testing.T) {
	m := sisModel(t)
	m.Io = nil
	if _, err := Encode(m, 0); err == nil {
		t.Fatal("Encode of invalid model succeeded")
	}
}

// TestArtifactSmallerAndBinary sanity-checks the format economics: raw
// float bits, so roughly 8 bytes per sample plus framing — far smaller
// than the decimal JSON text it replaces.
func TestArtifactSmallerAndBinary(t *testing.T) {
	m := mcsmModel(t)
	bin, err := Encode(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Fatalf("binary artifact (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(js))
	}
	if err := os.WriteFile(filepath.Join(t.TempDir(), "a"+Ext), bin, 0o644); err != nil {
		t.Fatal(err)
	}
}
