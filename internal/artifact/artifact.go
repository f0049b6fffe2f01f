// Package artifact is the versioned binary serialization of characterized
// CSM models — the model cache's only spill format. JSON stays the export
// format (csm.LoadModel, mcsm-char -pack/-unpack converts between them).
//
// A characterized model is a pure function of its cache key (technology,
// cell spec, model kind, characterization config), which makes it the
// ideal unit of replication: characterize once, ship the artifact to every
// replica, reload in milliseconds. JSON already proved the round trip
// (csm.Model's codecs keep every float64 bit exact); this package keeps
// that contract — Encode→Decode reproduces the model bit-for-bit, as does
// converting through the JSON path in either direction — while loading
// several times faster, because the payload is raw IEEE-754 bits instead
// of parsed decimal text.
//
// Wire layout (little-endian throughout):
//
//	offset 0   magic   "MCSM"
//	offset 4   version uint32 (currently 1)
//	offset 8   keyHash uint64 — FNV-64a of the characterization cache key
//	           (0 = unkeyed, e.g. a standalone mcsm-char -pack conversion)
//	offset 16  payload (model fields; see encode)
//	trailer    crc32   uint32, IEEE, over everything before it
//
// Decode rejects, with a diagnostic error and no partial model: a wrong
// magic, an unknown version, a CRC mismatch (truncation, bit rot), any
// structurally inconsistent payload (csm.Model.Validate), and — when the
// caller supplies a non-zero expected key — a key-hash mismatch. The
// model-cache reload path treats every rejection alike: count it, log
// it, re-characterize.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"mcsm/internal/csm"
	"mcsm/internal/table"
)

// Magic identifies a model artifact file.
var Magic = [4]byte{'M', 'C', 'S', 'M'}

// Version is the current artifact format version. Decoders reject any
// other value — replicas on mixed builds re-characterize rather than
// misread each other's artifacts.
const Version uint32 = 1

// Ext is the conventional artifact file extension.
const Ext = ".mcsm"

// maxStr bounds decoded string lengths; model field names are tens of
// bytes, so anything larger is corruption.
const maxStr = 1 << 12

// ErrFormat wraps every structural decode failure, so callers can
// distinguish "not a valid artifact" from I/O errors.
var ErrFormat = errors.New("artifact: invalid model artifact")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// kindCodes is the stable on-disk numbering of csm.Kind. Deliberately
// explicit (not the iota values) so reordering the Go enum can never
// silently change the wire format.
var kindCodes = map[csm.Kind]uint8{
	csm.KindSIS:         1,
	csm.KindMISBaseline: 2,
	csm.KindMCSM:        3,
}

func kindFromCode(c uint8) (csm.Kind, bool) {
	for k, code := range kindCodes {
		if code == c {
			return k, true
		}
	}
	return 0, false
}

// --- encoding ----------------------------------------------------------

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) uvarint(v int) { e.buf = binary.AppendUvarint(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.uvarint(len(s))
	e.buf = append(e.buf, s...)
}

func (e *encoder) floats(vs []float64) {
	for _, v := range vs {
		e.f64(v)
	}
}

// table writes one presence-prefixed table.
func (e *encoder) table(t *table.Table) error {
	if t == nil {
		e.u8(0)
		return nil
	}
	e.u8(1)
	rank := t.Rank()
	if rank == 0 || rank > table.MaxRank {
		return formatErr("table rank %d outside [1,%d]", rank, table.MaxRank)
	}
	e.u8(uint8(rank))
	size := 1
	for _, a := range t.Axes {
		e.str(a.Name)
		e.uvarint(len(a.Points))
		e.floats(a.Points)
		size *= len(a.Points)
	}
	if size != len(t.Data) {
		return formatErr("table data length %d does not match grid size %d", len(t.Data), size)
	}
	e.floats(t.Data)
	return nil
}

func (e *encoder) tables(ts []*table.Table) error {
	e.uvarint(len(ts))
	for _, t := range ts {
		if err := e.table(t); err != nil {
			return err
		}
	}
	return nil
}

// Encode serializes a model into a self-verifying binary artifact.
// keyHash fingerprints the characterization identity the model belongs to
// (the cache-key FNV the spill filenames already carry); pass 0 for an
// unkeyed standalone artifact.
func Encode(m *csm.Model, keyHash uint64) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &encoder{buf: make([]byte, 0, encodedSizeHint(m))}
	e.buf = append(e.buf, Magic[:]...)
	e.u32(Version)
	e.u64(keyHash)

	code, ok := kindCodes[m.Kind]
	if !ok {
		return nil, formatErr("unknown model kind %d", m.Kind)
	}
	e.u8(code)
	e.str(m.Cell)
	e.f64(m.Vdd)
	e.uvarint(len(m.Inputs))
	for _, in := range m.Inputs {
		e.str(in)
	}
	// Held pins in the model's own input order would be ambiguous (they
	// are by definition NOT modeled inputs); sort for a canonical stream.
	held := sortedKeys(m.Held)
	e.uvarint(len(held))
	for _, k := range held {
		e.str(k)
		e.f64(m.Held[k])
	}
	e.str(m.Internal)
	e.f64(m.DeltaV)

	for _, t := range []*table.Table{m.Io, m.IN, m.Co, m.CN, m.CmNO} {
		if err := e.table(t); err != nil {
			return nil, err
		}
	}
	for _, ts := range [][]*table.Table{m.Cm, m.CIn, m.CPin, m.CmN} {
		if err := e.tables(ts); err != nil {
			return nil, err
		}
	}

	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf, nil
}

// encodedSizeHint estimates the artifact size so Encode allocates once.
func encodedSizeHint(m *csm.Model) int {
	n := 64
	add := func(t *table.Table) {
		if t != nil {
			n += 8*len(t.Data) + 64
			for _, a := range t.Axes {
				n += 8 * len(a.Points)
			}
		}
	}
	for _, t := range []*table.Table{m.Io, m.IN, m.Co, m.CN, m.CmNO} {
		add(t)
	}
	for _, ts := range [][]*table.Table{m.Cm, m.CIn, m.CPin, m.CmN} {
		for _, t := range ts {
			add(t)
		}
	}
	return n
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort: maps here hold ≤ 2 pins
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// --- decoding ----------------------------------------------------------

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u8() (uint8, error) {
	if d.remaining() < 1 {
		return 0, formatErr("truncated at byte %d", d.off)
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, formatErr("truncated at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *decoder) uvarint() (int, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, formatErr("bad varint at byte %d", d.off)
	}
	d.off += n
	if v > uint64(len(d.buf)) {
		// Every count in the format tallies items that occupy at least one
		// byte each, so a count beyond the input length is corruption —
		// rejecting here bounds every allocation by the input size.
		return 0, formatErr("count %d exceeds artifact size", v)
	}
	return int(v), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStr {
		return "", formatErr("string length %d exceeds limit", n)
	}
	if d.remaining() < n {
		return "", formatErr("truncated string at byte %d", d.off)
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *decoder) floats(n int) ([]float64, error) {
	if d.remaining() < 8*n {
		return nil, formatErr("truncated float block at byte %d", d.off)
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
	return vs, nil
}

func (d *decoder) table() (*table.Table, error) {
	present, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, formatErr("bad table presence byte %d", present)
	}
	rank, err := d.u8()
	if err != nil {
		return nil, err
	}
	if rank == 0 || int(rank) > table.MaxRank {
		return nil, formatErr("table rank %d outside [1,%d]", rank, table.MaxRank)
	}
	axes := make([]table.Axis, rank)
	size := 1
	for i := range axes {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		pts, err := d.floats(n)
		if err != nil {
			return nil, err
		}
		axes[i] = table.Axis{Name: name, Points: pts}
		size *= n
		if d.remaining() < size { // cheap monotone bound: data still to come
			return nil, formatErr("grid size %d exceeds artifact size", size)
		}
	}
	data, err := d.floats(size)
	if err != nil {
		return nil, err
	}
	// table.New validates axis geometry (strictly increasing, finite) and
	// initializes interpolation strides; the decoded samples then replace
	// its zero fill.
	t, err := table.New(axes...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	copy(t.Data, data)
	return t, nil
}

func (d *decoder) tables() ([]*table.Table, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	ts := make([]*table.Table, n)
	for i := range ts {
		if ts[i], err = d.table(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// Decode parses and validates a binary artifact, returning the model and
// the key hash it was encoded under. Every failure mode — truncation,
// corruption, version skew, structural inconsistency — returns an error
// wrapping ErrFormat and a nil model.
func Decode(data []byte) (*csm.Model, uint64, error) {
	if len(data) < len(Magic)+4+8+4 {
		return nil, 0, formatErr("artifact too short (%d bytes)", len(data))
	}
	if string(data[:4]) != string(Magic[:]) {
		return nil, 0, formatErr("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, 0, formatErr("unsupported version %d (want %d)", v, Version)
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != trailer {
		return nil, 0, formatErr("CRC mismatch (stored %08x, computed %08x)", trailer, got)
	}

	d := &decoder{buf: body, off: len(Magic) + 4}
	keyHash, err := d.u64()
	if err != nil {
		return nil, 0, err
	}
	code, err := d.u8()
	if err != nil {
		return nil, 0, err
	}
	kind, ok := kindFromCode(code)
	if !ok {
		return nil, 0, formatErr("unknown model kind code %d", code)
	}
	m := &csm.Model{Kind: kind}
	if m.Cell, err = d.str(); err != nil {
		return nil, 0, err
	}
	if m.Vdd, err = d.f64(); err != nil {
		return nil, 0, err
	}
	nin, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if nin > 0 {
		m.Inputs = make([]string, nin)
		for i := range m.Inputs {
			if m.Inputs[i], err = d.str(); err != nil {
				return nil, 0, err
			}
		}
	}
	nheld, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if nheld > 0 {
		m.Held = make(map[string]float64, nheld)
		for i := 0; i < nheld; i++ {
			k, err := d.str()
			if err != nil {
				return nil, 0, err
			}
			v, err := d.f64()
			if err != nil {
				return nil, 0, err
			}
			m.Held[k] = v
		}
	}
	if m.Internal, err = d.str(); err != nil {
		return nil, 0, err
	}
	if m.DeltaV, err = d.f64(); err != nil {
		return nil, 0, err
	}

	for _, dst := range []**table.Table{&m.Io, &m.IN, &m.Co, &m.CN, &m.CmNO} {
		if *dst, err = d.table(); err != nil {
			return nil, 0, err
		}
	}
	for _, dst := range []*[]*table.Table{&m.Cm, &m.CIn, &m.CPin, &m.CmN} {
		if *dst, err = d.tables(); err != nil {
			return nil, 0, err
		}
	}
	if d.remaining() != 0 {
		return nil, 0, formatErr("%d trailing bytes after payload", d.remaining())
	}
	if err := m.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return m, keyHash, nil
}

// --- files -------------------------------------------------------------

// Save atomically-enough writes an artifact file (plain WriteFile — the
// model-cache spill already tolerates torn writes by rejecting them on
// reload).
func Save(path string, m *csm.Model, keyHash uint64) error {
	data, err := Encode(m, keyHash)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads and decodes an artifact file. A non-zero wantKey additionally
// requires the artifact's embedded key hash to match — the cross-replica
// guard against serving a model characterized under a different identity
// from a colliding filename.
func Load(path string, wantKey uint64) (*csm.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, keyHash, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if wantKey != 0 && keyHash != wantKey {
		return nil, fmt.Errorf("%s: %w: key hash %016x, want %016x", path, ErrFormat, keyHash, wantKey)
	}
	return m, nil
}
