// Package ckpt implements the checkpoint/restart subsystem: a
// versioned, self-describing binary format capturing the complete
// simulation state — AMR hierarchy geometry, every registered field's
// per-patch data (ghosts included), solver counters, driver phase, and
// the MPI virtual clock — plus the durability machinery around it
// (per-rank shards, a rank-0 manifest validating them, an asynchronous
// writer, and a supervised retry loop for fault recovery).
//
// Layout of one shard file (format version 2):
//
//	magic "CCAHCKPT" | version u32 | section*
//	section := kind u32 | flags u32 | ulen u64 | clen u64 | stored | crc32(stored) u32
//
// flags bit 0 marks a gzip-compressed section: stored is the gzip
// stream of the raw payload (clen bytes on disk, ulen bytes raw). The
// CRC always covers the stored bytes, so manifests validate shards
// without decompressing them. Decoders accept exactly this version.
//
// Sections appear in order: one header, one hierarchy, one field per
// registered variable, one meta. A *full* shard carries every locally
// owned patch; a *delta* shard (header kind 1) carries only the patches
// dirtied since the parent checkpoint it references. All integers are
// little-endian; signed values travel as two's-complement u64; floats
// travel as IEEE-754 bit patterns (math.Float64bits), which is what
// makes restores bit-exact. Every decode path is bounds-checked and
// returns an error — corrupt or truncated input never panics.
package ckpt

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/mpi"
)

// FormatVersion is the only version this build writes and reads.
const FormatVersion = 2

const shardMagic = "CCAHCKPT"

// Section kinds.
const (
	secHeader uint32 = iota + 1
	secHierarchy
	secField
	secMeta
)

// Section flags.
const sectionGzip uint32 = 1 << 0

// ShardKind distinguishes full checkpoints from incremental deltas.
type ShardKind int

const (
	// ShardFull carries every locally owned patch of every field.
	ShardFull ShardKind = iota
	// ShardDelta carries only patches dirtied since the parent
	// checkpoint; restore overlays it onto the materialized parent.
	ShardDelta
)

func (k ShardKind) String() string {
	if k == ShardDelta {
		return "delta"
	}
	return "full"
}

// Decode sanity caps: a corrupt length field must fail fast instead of
// driving a multi-gigabyte allocation.
const (
	maxStringLen  = 1 << 20
	maxCount      = 1 << 24
	maxWords      = 1 << 31
	maxSectionLen = 1 << 32
)

// PatchBlob is one patch's complete backing array (component-major over
// the grown box — ghosts included, so restore needs no exchange).
type PatchBlob struct {
	ID   int
	Data []float64
}

// FieldShard is one registered variable's locally owned data.
type FieldShard struct {
	Name    string
	NComp   int
	Ghost   int
	Names   []string
	Patches []PatchBlob
}

// Meta carries the driver's phase position and everything scalar:
// counters (solver statistics), series (accumulating diagnostics like
// the shock driver's circulation history), simulation time, and the
// rank's virtual clock and traffic stats.
type Meta struct {
	Driver      string
	Step        int
	Time        float64
	Counters    map[string]float64
	Series      map[string][]float64
	VirtualTime float64
	Comm        mpi.CommStats
}

// Shard is one rank's checkpoint state: complete for ShardFull, only
// the dirtied patches for ShardDelta. ParentStep is the step of the
// checkpoint a delta overlays (meaningful only when Kind==ShardDelta;
// -1 otherwise).
type Shard struct {
	Rank       int
	NumRanks   int
	Kind       ShardKind
	ParentStep int
	Snapshot   amr.Snapshot
	Fields     []FieldShard
	Meta       Meta
}

// ---- encoding ----

type encoder struct{ b []byte }

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int)    { e.u64(uint64(int64(v))) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *encoder) floats(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *encoder) box(b amr.Box) {
	e.i64(b.Lo[0])
	e.i64(b.Lo[1])
	e.i64(b.Hi[0])
	e.i64(b.Hi[1])
}

// section appends one framed section. When compress is set and the
// gzip stream comes out smaller, the payload is stored compressed
// (flags bit 0); otherwise it is stored raw. The CRC covers the stored
// bytes either way.
func (e *encoder) section(kind uint32, payload []byte, compress bool) {
	stored := payload
	var flags uint32
	if compress && len(payload) >= 128 {
		if gz := gzipBytes(payload); len(gz) < len(payload) {
			stored = gz
			flags = sectionGzip
		}
	}
	e.u32(kind)
	e.u32(flags)
	e.u64(uint64(len(payload)))
	e.u64(uint64(len(stored)))
	e.b = append(e.b, stored...)
	e.u32(crc32.ChecksumIEEE(stored))
}

// gzipBytes compresses deterministically (fixed level, zero header).
func gzipBytes(raw []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	zw.Write(raw) //nolint:errcheck // bytes.Buffer cannot fail
	zw.Close()    //nolint:errcheck
	return buf.Bytes()
}

// gunzipBytes inflates a stored section, enforcing the recorded raw
// length: any mismatch or stream damage is an error, never a panic.
func gunzipBytes(stored []byte, ulen int) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(stored))
	if err != nil {
		return nil, fmt.Errorf("ckpt: gzip section: %w", err)
	}
	// Cap the up-front allocation: ulen is untrusted until the stream
	// actually inflates to it, and a corrupt header must not drive a
	// multi-gigabyte make. append grows the honest case just fine.
	prealloc := ulen
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	raw := make([]byte, 0, prealloc)
	lim := io.LimitReader(zr, int64(ulen)+1)
	buf := make([]byte, 32*1024)
	for {
		n, err := lim.Read(buf)
		raw = append(raw, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: gzip section: %w", err)
		}
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("ckpt: gzip section: %w", err)
	}
	if len(raw) != ulen {
		return nil, fmt.Errorf("ckpt: gzip section inflated to %d bytes, header says %d", len(raw), ulen)
	}
	return raw, nil
}

func encodeHierarchy(s amr.Snapshot) []byte {
	var e encoder
	e.box(s.Domain)
	e.i64(s.Ratio)
	e.i64(s.MaxLevels)
	e.i64(s.NumRanks)
	e.i64(s.NestingBuffer)
	e.i64(s.Regrids)
	e.i64(s.NextID)
	e.u64(uint64(len(s.Patches)))
	for _, p := range s.Patches {
		e.i64(p.ID)
		e.i64(p.Level)
		e.box(p.Box)
		e.i64(p.Owner)
	}
	return e.b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func encodeMeta(m *Meta) []byte {
	var e encoder
	e.str(m.Driver)
	e.i64(m.Step)
	e.f64(m.Time)
	e.f64(m.VirtualTime)
	e.i64(m.Comm.Sends)
	e.i64(m.Comm.Recvs)
	e.i64(m.Comm.WordsSent)
	e.f64(m.Comm.CommSeconds)
	e.f64(m.Comm.HiddenSeconds)
	e.u64(uint64(len(m.Counters)))
	for _, k := range sortedKeys(m.Counters) {
		e.str(k)
		e.f64(m.Counters[k])
	}
	e.u64(uint64(len(m.Series)))
	for _, k := range sortedKeys(m.Series) {
		e.str(k)
		e.floats(m.Series[k])
	}
	return e.b
}

// encodeField lays out one field section payload. The patch headers are
// written serially; the bulk float64 payloads — the overwhelming
// majority of the bytes — are bit-packed in parallel on the exec pool.
func encodeField(f *FieldShard, pool *exec.Pool) []byte {
	var e encoder
	e.str(f.Name)
	e.i64(f.NComp)
	e.i64(f.Ghost)
	e.u64(uint64(len(f.Names)))
	for _, n := range f.Names {
		e.str(n)
	}
	e.u64(uint64(len(f.Patches)))
	// Fixed per-patch layout (id, nwords, data) lets us precompute each
	// patch's data offset and fill them concurrently.
	offsets := make([]int, len(f.Patches))
	off := len(e.b)
	for i, p := range f.Patches {
		off += 16 // id + nwords
		offsets[i] = off
		off += 8 * len(p.Data)
	}
	buf := make([]byte, off)
	copy(buf, e.b)
	for i, p := range f.Patches {
		hdr := offsets[i] - 16
		binary.LittleEndian.PutUint64(buf[hdr:], uint64(int64(p.ID)))
		binary.LittleEndian.PutUint64(buf[hdr+8:], uint64(len(p.Data)))
	}
	pack := func(i int) {
		p := f.Patches[i]
		at := offsets[i]
		for _, x := range p.Data {
			binary.LittleEndian.PutUint64(buf[at:], math.Float64bits(x))
			at += 8
		}
	}
	if pool != nil && len(f.Patches) > 1 {
		pool.ForEach(len(f.Patches), func(_ int, i int) { pack(i) })
	} else {
		for i := range f.Patches {
			pack(i)
		}
	}
	return buf
}

// EncodeShard serializes one rank's checkpoint state uncompressed. When
// pool is non-nil the per-patch field payloads are packed in parallel.
func EncodeShard(s *Shard, pool *exec.Pool) []byte {
	return EncodeShardOpts(s, pool, false)
}

// EncodeShardOpts serializes one rank's checkpoint state, optionally
// gzip-compressing section payloads (a section is stored raw when
// compression does not shrink it).
func EncodeShardOpts(s *Shard, pool *exec.Pool, compress bool) []byte {
	var hdr encoder
	hdr.i64(s.Rank)
	hdr.i64(s.NumRanks)
	hdr.u64(uint64(s.Kind))
	hdr.i64(s.ParentStep)

	var e encoder
	e.b = append(e.b, shardMagic...)
	e.u32(FormatVersion)
	e.section(secHeader, hdr.b, false)
	e.section(secHierarchy, encodeHierarchy(s.Snapshot), compress)
	for i := range s.Fields {
		e.section(secField, encodeField(&s.Fields[i], pool), compress)
	}
	e.section(secMeta, encodeMeta(&s.Meta), compress)
	return e.b
}

// ---- decoding ----

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) u32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, fmt.Errorf("ckpt: truncated at offset %d (need u32)", d.off)
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("ckpt: truncated at offset %d (need u64)", d.off)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) i64() (int, error) {
	v, err := d.u64()
	return int(int64(v)), err
}

func (d *decoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *decoder) str() (string, error) {
	n, err := d.u64()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || int(n) > d.remaining() {
		return "", fmt.Errorf("ckpt: string length %d at offset %d out of bounds", n, d.off)
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) floats() ([]float64, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n > maxWords || int(n)*8 > d.remaining() {
		return nil, fmt.Errorf("ckpt: float array length %d at offset %d out of bounds", n, d.off)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
	return out, nil
}

func (d *decoder) box() (amr.Box, error) {
	var b amr.Box
	var err error
	if b.Lo[0], err = d.i64(); err != nil {
		return b, err
	}
	if b.Lo[1], err = d.i64(); err != nil {
		return b, err
	}
	if b.Hi[0], err = d.i64(); err != nil {
		return b, err
	}
	b.Hi[1], err = d.i64()
	return b, err
}

// count reads an element count and rejects anything implausible before
// an allocation happens.
func (d *decoder) count(what string) (int, error) {
	n, err := d.u64()
	if err != nil {
		return 0, err
	}
	if n > maxCount {
		return 0, fmt.Errorf("ckpt: %s count %d exceeds sanity cap", what, n)
	}
	return int(n), nil
}

func decodeHierarchy(payload []byte) (amr.Snapshot, error) {
	d := &decoder{b: payload}
	var s amr.Snapshot
	var err error
	if s.Domain, err = d.box(); err != nil {
		return s, err
	}
	for _, dst := range []*int{&s.Ratio, &s.MaxLevels, &s.NumRanks, &s.NestingBuffer, &s.Regrids, &s.NextID} {
		if *dst, err = d.i64(); err != nil {
			return s, err
		}
	}
	n, err := d.count("patch")
	if err != nil {
		return s, err
	}
	s.Patches = make([]amr.PatchSnapshot, n)
	for i := range s.Patches {
		p := &s.Patches[i]
		if p.ID, err = d.i64(); err != nil {
			return s, err
		}
		if p.Level, err = d.i64(); err != nil {
			return s, err
		}
		if p.Box, err = d.box(); err != nil {
			return s, err
		}
		if p.Owner, err = d.i64(); err != nil {
			return s, err
		}
	}
	if d.remaining() != 0 {
		return s, fmt.Errorf("ckpt: %d trailing bytes in hierarchy section", d.remaining())
	}
	return s, nil
}

func decodeField(payload []byte) (FieldShard, error) {
	d := &decoder{b: payload}
	var f FieldShard
	var err error
	if f.Name, err = d.str(); err != nil {
		return f, err
	}
	if f.NComp, err = d.i64(); err != nil {
		return f, err
	}
	if f.Ghost, err = d.i64(); err != nil {
		return f, err
	}
	if f.NComp < 0 || f.NComp > maxCount || f.Ghost < 0 || f.Ghost > maxCount {
		return f, fmt.Errorf("ckpt: field %q has invalid shape (ncomp=%d ghost=%d)", f.Name, f.NComp, f.Ghost)
	}
	nNames, err := d.count("component name")
	if err != nil {
		return f, err
	}
	f.Names = make([]string, nNames)
	for i := range f.Names {
		if f.Names[i], err = d.str(); err != nil {
			return f, err
		}
	}
	nPatches, err := d.count("patch blob")
	if err != nil {
		return f, err
	}
	f.Patches = make([]PatchBlob, nPatches)
	for i := range f.Patches {
		if f.Patches[i].ID, err = d.i64(); err != nil {
			return f, err
		}
		if f.Patches[i].Data, err = d.floats(); err != nil {
			return f, err
		}
	}
	if d.remaining() != 0 {
		return f, fmt.Errorf("ckpt: %d trailing bytes in field section", d.remaining())
	}
	return f, nil
}

func decodeMeta(payload []byte) (Meta, error) {
	d := &decoder{b: payload}
	var m Meta
	var err error
	if m.Driver, err = d.str(); err != nil {
		return m, err
	}
	if m.Step, err = d.i64(); err != nil {
		return m, err
	}
	if m.Time, err = d.f64(); err != nil {
		return m, err
	}
	if m.VirtualTime, err = d.f64(); err != nil {
		return m, err
	}
	if m.Comm.Sends, err = d.i64(); err != nil {
		return m, err
	}
	if m.Comm.Recvs, err = d.i64(); err != nil {
		return m, err
	}
	if m.Comm.WordsSent, err = d.i64(); err != nil {
		return m, err
	}
	if m.Comm.CommSeconds, err = d.f64(); err != nil {
		return m, err
	}
	if m.Comm.HiddenSeconds, err = d.f64(); err != nil {
		return m, err
	}
	nCounters, err := d.count("counter")
	if err != nil {
		return m, err
	}
	m.Counters = make(map[string]float64, nCounters)
	for i := 0; i < nCounters; i++ {
		k, err := d.str()
		if err != nil {
			return m, err
		}
		if m.Counters[k], err = d.f64(); err != nil {
			return m, err
		}
	}
	nSeries, err := d.count("series")
	if err != nil {
		return m, err
	}
	m.Series = make(map[string][]float64, nSeries)
	for i := 0; i < nSeries; i++ {
		k, err := d.str()
		if err != nil {
			return m, err
		}
		if m.Series[k], err = d.floats(); err != nil {
			return m, err
		}
	}
	if d.remaining() != 0 {
		return m, fmt.Errorf("ckpt: %d trailing bytes in meta section", d.remaining())
	}
	return m, nil
}

// readSection consumes one framed section and returns (kind, raw
// payload), inflating gzip payloads after the CRC check.
func readSection(d *decoder) (uint32, []byte, error) {
	kind, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	flags, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	if flags&^sectionGzip != 0 {
		return 0, nil, fmt.Errorf("ckpt: section %d has unknown flags %#x", kind, flags)
	}
	ulen, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	if ulen > maxSectionLen {
		return 0, nil, fmt.Errorf("ckpt: section %d raw length %d exceeds sanity cap", kind, ulen)
	}
	n, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	if int64(n) < 0 || int(n) > d.remaining()-4 {
		return 0, nil, fmt.Errorf("ckpt: section %d length %d out of bounds at offset %d", kind, n, d.off)
	}
	stored := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	wantCRC, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	if got := crc32.ChecksumIEEE(stored); got != wantCRC {
		return 0, nil, fmt.Errorf("ckpt: section %d CRC mismatch (got %08x want %08x)", kind, got, wantCRC)
	}
	payload := stored
	if flags&sectionGzip != 0 {
		if payload, err = gunzipBytes(stored, int(ulen)); err != nil {
			return 0, nil, fmt.Errorf("ckpt: section %d: %w", kind, err)
		}
	} else if uint64(len(stored)) != ulen {
		return 0, nil, fmt.Errorf("ckpt: section %d stored length %d != raw length %d without compression",
			kind, len(stored), ulen)
	}
	return kind, payload, nil
}

// DecodeShard parses and validates one shard file's contents. Sections
// are CRC-verified individually; any structural damage — bad magic, version
// skew, truncation, bit flips, corrupt gzip frames, out-of-range counts
// — returns a descriptive error.
func DecodeShard(b []byte) (*Shard, error) {
	d := &decoder{b: b}
	if d.remaining() < len(shardMagic) || string(b[:len(shardMagic)]) != shardMagic {
		return nil, fmt.Errorf("ckpt: bad shard magic")
	}
	d.off = len(shardMagic)
	ver, err := d.u32()
	if err != nil {
		return nil, err
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("ckpt: format version %d, this build reads only %d", ver, FormatVersion)
	}
	s := &Shard{Rank: -1, ParentStep: -1}
	var haveHeader, haveHierarchy, haveMeta bool
	for d.remaining() > 0 {
		kind, payload, err := readSection(d)
		if err != nil {
			return nil, err
		}
		switch kind {
		case secHeader:
			hd := &decoder{b: payload}
			if s.Rank, err = hd.i64(); err != nil {
				return nil, err
			}
			if s.NumRanks, err = hd.i64(); err != nil {
				return nil, err
			}
			k, err := hd.u64()
			if err != nil {
				return nil, err
			}
			if k > uint64(ShardDelta) {
				return nil, fmt.Errorf("ckpt: header shard kind %d out of range", k)
			}
			s.Kind = ShardKind(k)
			if s.ParentStep, err = hd.i64(); err != nil {
				return nil, err
			}
			if s.NumRanks < 1 || s.Rank < 0 || s.Rank >= s.NumRanks {
				return nil, fmt.Errorf("ckpt: header rank %d/%d out of range", s.Rank, s.NumRanks)
			}
			haveHeader = true
		case secHierarchy:
			if s.Snapshot, err = decodeHierarchy(payload); err != nil {
				return nil, err
			}
			haveHierarchy = true
		case secField:
			f, err := decodeField(payload)
			if err != nil {
				return nil, err
			}
			s.Fields = append(s.Fields, f)
		case secMeta:
			if s.Meta, err = decodeMeta(payload); err != nil {
				return nil, err
			}
			haveMeta = true
		default:
			return nil, fmt.Errorf("ckpt: unknown section kind %d", kind)
		}
	}
	if !haveHeader || !haveHierarchy || !haveMeta {
		return nil, fmt.Errorf("ckpt: incomplete shard (header=%v hierarchy=%v meta=%v)",
			haveHeader, haveHierarchy, haveMeta)
	}
	return s, nil
}
