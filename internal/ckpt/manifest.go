package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// The manifest is the durability marker. Ranks write their shards
// asynchronously; rank 0 gathers each shard's (size, CRC) digest and
// writes the step's manifest naming all of them. A checkpoint counts as
// durable only when its manifest exists AND every shard it names
// validates against the recorded digest — so a crash mid-write (missing
// shard, short shard, torn bytes) simply invalidates that step and
// recovery falls back to the previous one. Incremental checkpoints add
// chain linkage: a delta manifest names its parent checkpoint by
// content-derived ID and step, and a delta counts as restorable only
// when the whole chain down to a full base validates (ResolveChain).
//
//	magic "CCAHMANI" | version u32 | body | crc32(body) u32
//	body  := step u64 | nranks u64 | kind u64 | parentStep u64(two's complement)
//	         | id string | parentID string | entry*
//	entry := file string | size u64 | crc u32
const manifestMagic = "CCAHMANI"

// ManifestEntry names one rank's shard file and its expected digest.
type ManifestEntry struct {
	File string // base name, relative to the manifest's directory
	Size uint64
	CRC  uint32
}

// Manifest indexes one durable checkpoint. ID is derived from the shard
// digests (see ManifestID); ParentID/ParentStep link a delta to the
// checkpoint it overlays and are meaningful only when Kind==ShardDelta
// (ParentStep is -1 otherwise).
type Manifest struct {
	Step       int
	NumRanks   int
	Kind       ShardKind
	ID         string
	ParentID   string
	ParentStep int
	Shards     []ManifestEntry
}

// ShardFileName is the per-rank shard file name for a step.
func ShardFileName(step, rank int) string {
	return fmt.Sprintf("ck-%06d.r%d.shard", step, rank)
}

// ManifestFileName is the manifest file name for a step. The zero-padded
// step keeps lexical order equal to step order.
func ManifestFileName(step int) string {
	return fmt.Sprintf("ck-%06d.manifest", step)
}

// Digest computes the (size, CRC) pair recorded in manifests.
func Digest(data []byte) (uint64, uint32) {
	return uint64(len(data)), crc32.ChecksumIEEE(data)
}

// ManifestID derives the checkpoint's content ID from its step, rank
// count, and shard digests — every rank computes the same value from
// the same durable bytes, with no extra communication.
func ManifestID(m *Manifest) string {
	var e encoder
	e.u64(uint64(m.Step))
	e.u64(uint64(m.NumRanks))
	for _, s := range m.Shards {
		e.str(s.File)
		e.u64(s.Size)
		e.u32(s.CRC)
	}
	return fmt.Sprintf("%06d-%08x", m.Step, crc32.ChecksumIEEE(e.b))
}

// EncodeManifest serializes a manifest.
func EncodeManifest(m *Manifest) []byte {
	var body encoder
	body.u64(uint64(m.Step))
	body.u64(uint64(m.NumRanks))
	body.u64(uint64(m.Kind))
	body.i64(m.ParentStep)
	body.str(m.ID)
	body.str(m.ParentID)
	for _, s := range m.Shards {
		body.str(s.File)
		body.u64(s.Size)
		body.u32(s.CRC)
	}
	var e encoder
	e.b = append(e.b, manifestMagic...)
	e.u32(FormatVersion)
	e.b = append(e.b, body.b...)
	e.u32(crc32.ChecksumIEEE(body.b))
	return e.b
}

// DecodeManifest parses and CRC-validates a manifest.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < len(manifestMagic)+8 || string(b[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("ckpt: bad manifest magic")
	}
	d := &decoder{b: b, off: len(manifestMagic)}
	ver, err := d.u32()
	if err != nil {
		return nil, err
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("ckpt: manifest version %d, this build reads only %d", ver, FormatVersion)
	}
	body := b[d.off : len(b)-4]
	wantCRC := binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("ckpt: manifest CRC mismatch (got %08x want %08x)", got, wantCRC)
	}
	d = &decoder{b: body}
	m := &Manifest{ParentStep: -1}
	if m.Step, err = d.i64(); err != nil {
		return nil, err
	}
	if m.NumRanks, err = d.i64(); err != nil {
		return nil, err
	}
	k, err := d.u64()
	if err != nil {
		return nil, err
	}
	if k > uint64(ShardDelta) {
		return nil, fmt.Errorf("ckpt: manifest kind %d out of range", k)
	}
	m.Kind = ShardKind(k)
	if m.ParentStep, err = d.i64(); err != nil {
		return nil, err
	}
	if m.ID, err = d.str(); err != nil {
		return nil, err
	}
	if m.ParentID, err = d.str(); err != nil {
		return nil, err
	}
	if m.Step < 0 || m.NumRanks < 1 || m.NumRanks > maxCount {
		return nil, fmt.Errorf("ckpt: manifest header step=%d ranks=%d out of range", m.Step, m.NumRanks)
	}
	if m.Kind == ShardDelta {
		// The anti-cycle invariant: a delta's parent is strictly older,
		// so any chain walk strictly decreases and must terminate.
		if m.ParentStep < 0 || m.ParentStep >= m.Step {
			return nil, fmt.Errorf("ckpt: delta manifest step %d has invalid parent step %d", m.Step, m.ParentStep)
		}
		if m.ParentID == "" {
			return nil, fmt.Errorf("ckpt: delta manifest step %d has no parent ID", m.Step)
		}
	}
	for d.remaining() > 0 {
		var s ManifestEntry
		if s.File, err = d.str(); err != nil {
			return nil, err
		}
		if s.Size, err = d.u64(); err != nil {
			return nil, err
		}
		if s.CRC, err = d.u32(); err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, s)
	}
	if len(m.Shards) != m.NumRanks {
		return nil, fmt.Errorf("ckpt: manifest lists %d shards for %d ranks", len(m.Shards), m.NumRanks)
	}
	return m, nil
}

// Validate checks that every shard the manifest names exists next to it
// with the recorded size and CRC. path is the manifest file path.
func (m *Manifest) Validate(path string) error {
	dir := filepath.Dir(path)
	for _, s := range m.Shards {
		data, err := os.ReadFile(filepath.Join(dir, s.File))
		if err != nil {
			return fmt.Errorf("ckpt: manifest %s: %w", filepath.Base(path), err)
		}
		size, crc := Digest(data)
		if size != s.Size || crc != s.CRC {
			return fmt.Errorf("ckpt: shard %s digest mismatch (size %d/%d crc %08x/%08x)",
				s.File, size, s.Size, crc, s.CRC)
		}
	}
	return nil
}

// ReadManifest loads, decodes, and fully validates one manifest.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if err := m.Validate(path); err != nil {
		return nil, err
	}
	return m, nil
}

// ChainLink is one checkpoint of a resolved delta chain.
type ChainLink struct {
	Path     string
	Manifest *Manifest
}

// ResolveChain validates the checkpoint at path and every ancestor down
// to its full base: each link's manifest and shards must validate, each
// delta's recorded ParentID must match the parent's content ID, and
// parent steps must strictly decrease (which makes cycles impossible to
// express). The result is ordered base first, target last. Any torn,
// missing, mismatched, or dangling link fails the whole chain.
func ResolveChain(path string) ([]ChainLink, error) {
	var rev []ChainLink
	dir := filepath.Dir(path)
	for {
		m, err := ReadManifest(path)
		if err != nil {
			return nil, err
		}
		if len(rev) > 0 {
			child := rev[len(rev)-1].Manifest
			if m.Step != child.ParentStep {
				return nil, fmt.Errorf("ckpt: chain link %s is step %d, child expected parent step %d",
					filepath.Base(path), m.Step, child.ParentStep)
			}
			if id := ManifestID(m); id != child.ParentID {
				return nil, fmt.Errorf("ckpt: chain link %s has ID %s, child expected parent %s",
					filepath.Base(path), id, child.ParentID)
			}
			if m.NumRanks != child.NumRanks {
				return nil, fmt.Errorf("ckpt: chain link %s was written by %d ranks, child by %d",
					filepath.Base(path), m.NumRanks, child.NumRanks)
			}
		}
		rev = append(rev, ChainLink{Path: path, Manifest: m})
		if m.Kind != ShardDelta {
			break
		}
		// DecodeManifest guarantees ParentStep < Step for deltas, so this
		// walk strictly descends and terminates.
		path = filepath.Join(dir, ManifestFileName(m.ParentStep))
	}
	chain := make([]ChainLink, len(rev))
	for i, l := range rev {
		chain[len(rev)-1-i] = l
	}
	return chain, nil
}

// LatestValid scans dir for the newest checkpoint whose manifest, all
// named shards, and (for incremental checkpoints) the entire delta
// chain down to a full base validate, skipping damaged or incomplete
// ones. It returns the manifest path and step, or ok=false when none
// survives.
func LatestValid(dir string) (path string, step int, ok bool) {
	return LatestValidAtMost(dir, int(^uint(0)>>1))
}

// LatestValidAtMost is LatestValid restricted to checkpoints at step
// maxStep or earlier — the probe a content-addressed run store uses to
// find the longest shared checkpoint prefix a shorter resubmission can
// legally restart from (a checkpoint past the requested run length
// describes state the shorter run never reaches).
func LatestValidAtMost(dir string, maxStep int) (path string, step int, ok bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, false
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".manifest" {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		p := filepath.Join(dir, name)
		chain, err := ResolveChain(p)
		if err != nil {
			continue
		}
		if s := chain[len(chain)-1].Manifest.Step; s <= maxStep {
			return p, s, true
		}
	}
	return "", 0, false
}
