package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Tests for the version-2 surfaces: gzip section framing, delta-chain
// manifests, and the retention GC. The invariant under attack is always
// the same one: a checkpoint may be *lost* (torn, collected, corrupt)
// but must never be *wrong* — no panic, no silent restore of damaged
// bytes, no resolvable chain with a broken link.

// compressibleShard is testShard with a payload long and regular enough
// for gzip to win, so the compressed path actually exercises. n is the
// payload length in floats — the corruption sweep keeps it small (the
// sweep decodes the whole shard once per byte).
func compressibleShard(n int) *Shard {
	s := testShard()
	big := make([]float64, n)
	for i := range big {
		big[i] = float64(i % 7)
	}
	s.Fields[0].Patches[0].Data = big
	return s
}

func TestCompressedShardRoundTrip(t *testing.T) {
	want := compressibleShard(4096)
	raw := EncodeShardOpts(want, nil, false)
	gz := EncodeShardOpts(want, nil, true)
	if len(gz) >= len(raw) {
		t.Fatalf("compressed encode %d B not smaller than raw %d B", len(gz), len(raw))
	}
	// Compression must be deterministic: the manifest CRC depends on it.
	if !bytes.Equal(gz, EncodeShardOpts(want, nil, true)) {
		t.Fatal("compressed encode is not deterministic")
	}
	for name, data := range map[string][]byte{"raw": raw, "gzip": gz} {
		got, err := DecodeShard(data)
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s round-trip mismatch", name)
		}
	}
}

// The corruption sweep, rerun against a compressed delta shard:
// truncation at every length and a bit flip at every offset must error,
// never panic — including flips landing in the flags/length words and
// inside gzip streams.
func TestDecodeCompressedDeltaShardCorruptionNeverPanics(t *testing.T) {
	s := compressibleShard(256)
	s.Kind = ShardDelta
	s.ParentStep = 11
	data := EncodeShardOpts(s, nil, true)
	check := func(name string, b []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: DecodeShard panicked: %v", name, r)
			}
		}()
		if _, err := DecodeShard(b); err == nil {
			t.Fatalf("%s: corrupted shard accepted", name)
		}
	}
	for n := 0; n < len(data); n++ {
		check(fmt.Sprintf("truncate@%d", n), data[:n])
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		check(fmt.Sprintf("flip@%d", i), mut)
	}
}

// A flip inside a gzip stream with the section CRC recomputed to match:
// the CRC check passes by construction, so the gzip layer itself must
// catch the damage. Silent acceptance here would restore garbage bits.
func TestCorruptGzipFrameWithValidCRCDetected(t *testing.T) {
	data := EncodeShardOpts(compressibleShard(4096), nil, true)
	// Walk the section frames to find a compressed section.
	off := len(shardMagic) + 4
	corrupted := false
	for off < len(data) {
		flags := binary.LittleEndian.Uint32(data[off+4:])
		clen := int(binary.LittleEndian.Uint64(data[off+16:]))
		stored := data[off+24 : off+24+clen]
		if flags&sectionGzip != 0 && !corrupted {
			stored[clen/2] ^= 0x55
			binary.LittleEndian.PutUint32(data[off+24+clen:], crc32.ChecksumIEEE(stored))
			corrupted = true
		}
		off += 24 + clen + 4
	}
	if !corrupted {
		t.Fatal("test shard produced no compressed section")
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("DecodeShard panicked on corrupt gzip frame: %v", r)
		}
	}()
	if _, err := DecodeShard(data); err == nil {
		t.Fatal("corrupt gzip frame with fixed-up CRC accepted")
	}
}

// writeLinkedCkpt deposits one durable single-rank checkpoint linked to
// parent (nil for a full) and returns its manifest.
func writeLinkedCkpt(t testing.TB, dir string, step int, parent *Manifest) *Manifest {
	t.Helper()
	s := testShard()
	s.Rank = 0
	s.NumRanks = 1
	s.Meta.Step = step
	s.Kind = ShardFull
	s.ParentStep = -1
	if parent != nil {
		s.Kind = ShardDelta
		s.ParentStep = parent.Step
	}
	data := EncodeShard(s, nil)
	name := ShardFileName(step, 0)
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	size, crc := Digest(data)
	m := &Manifest{Step: step, NumRanks: 1, Kind: s.Kind, ParentStep: s.ParentStep,
		Shards: []ManifestEntry{{File: name, Size: size, CRC: crc}}}
	if parent != nil {
		m.ParentID = parent.ID
	}
	m.ID = ManifestID(m)
	if err := os.WriteFile(filepath.Join(dir, ManifestFileName(step)), EncodeManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestResolveChainWalksToBase(t *testing.T) {
	dir := t.TempDir()
	base := writeLinkedCkpt(t, dir, 0, nil)
	d1 := writeLinkedCkpt(t, dir, 2, base)
	d2 := writeLinkedCkpt(t, dir, 4, d1)
	chain, err := ResolveChain(filepath.Join(dir, ManifestFileName(4)))
	if err != nil {
		t.Fatalf("ResolveChain: %v", err)
	}
	var steps []int
	for _, l := range chain {
		steps = append(steps, l.Manifest.Step)
	}
	if !reflect.DeepEqual(steps, []int{0, 2, 4}) {
		t.Fatalf("chain steps %v, want [0 2 4]", steps)
	}
	if chain[2].Manifest.ID != d2.ID {
		t.Fatalf("target ID %s, want %s", chain[2].Manifest.ID, d2.ID)
	}
}

// Dangling parent references: a delta whose parent manifest is missing,
// and a delta whose recorded parent ID does not match the manifest
// actually sitting at that step, must both fail the whole chain — and
// LatestValid must fall back past them.
func TestResolveChainDanglingParent(t *testing.T) {
	dir := t.TempDir()
	base := writeLinkedCkpt(t, dir, 0, nil)

	// Parent manifest file absent.
	missing := *base
	missing.Step = 2 // no manifest was ever written for step 2
	d := writeLinkedCkpt(t, dir, 4, &missing)
	if _, err := ResolveChain(filepath.Join(dir, ManifestFileName(4))); err == nil {
		t.Fatal("chain with missing parent manifest resolved")
	}
	_ = d

	// Parent present but with a different content ID.
	forged := *base
	forged.ID = "000000-deadbeef"
	writeLinkedCkpt(t, dir, 6, &forged)
	if _, err := ResolveChain(filepath.Join(dir, ManifestFileName(6))); err == nil {
		t.Fatal("chain with mismatched parent ID resolved")
	}

	path, step, ok := LatestValid(dir)
	if !ok || step != 0 || path != filepath.Join(dir, ManifestFileName(0)) {
		t.Fatalf("LatestValid = (%q, %d, %v), want the step-0 base", path, step, ok)
	}
}

// Cycles are unrepresentable: DecodeManifest enforces ParentStep < Step
// for deltas, so self- and forward-references are rejected before any
// chain walk could loop on them.
func TestDecodeManifestRejectsCyclicParent(t *testing.T) {
	for _, parent := range []int{7, 9, -1} {
		m := &Manifest{Step: 7, NumRanks: 1, Kind: ShardDelta, ParentStep: parent, ParentID: "000005-0badc0de",
			Shards: []ManifestEntry{{File: ShardFileName(7, 0), Size: 1, CRC: 2}}}
		m.ID = ManifestID(m)
		if _, err := DecodeManifest(EncodeManifest(m)); err == nil {
			t.Errorf("delta manifest with parent step %d (own step 7) decoded", parent)
		}
	}
	// A delta with no parent ID is equally unusable.
	m := &Manifest{Step: 7, NumRanks: 1, Kind: ShardDelta, ParentStep: 5,
		Shards: []ManifestEntry{{File: ShardFileName(7, 0), Size: 1, CRC: 2}}}
	if _, err := DecodeManifest(EncodeManifest(m)); err == nil {
		t.Error("delta manifest without parent ID decoded")
	}
}

// A torn middle link invalidates every descendant: LatestValid must
// skip the whole damaged chain and land on the last full base, never
// resolving a chain whose base or any link is torn.
func TestLatestValidSkipsTornChainLink(t *testing.T) {
	dir := t.TempDir()
	base := writeLinkedCkpt(t, dir, 0, nil)
	d1 := writeLinkedCkpt(t, dir, 1, base)
	writeLinkedCkpt(t, dir, 2, d1)

	// Tear the middle delta's shard.
	if err := os.Truncate(filepath.Join(dir, ShardFileName(1, 0)), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveChain(filepath.Join(dir, ManifestFileName(2))); err == nil {
		t.Fatal("chain over a torn middle link resolved")
	}
	path, step, ok := LatestValid(dir)
	if !ok || step != 0 {
		t.Fatalf("LatestValid = (%q, %d, %v), want the step-0 base", path, step, ok)
	}

	// Tear the base too: nothing survives.
	if err := os.Truncate(filepath.Join(dir, ShardFileName(0, 0)), 16); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := LatestValid(dir); ok {
		t.Fatal("LatestValid resolved a chain whose base is torn")
	}
}

// assertAllSurvivorsResolvable is the GC safety property: after any
// collection pass, every manifest still on disk must resolve its full
// chain — i.e. GC never deleted a shard or parent reachable from a
// kept manifest.
func assertAllSurvivorsResolvable(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".manifest" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifest(data); err != nil {
			continue // protected damage, not a kept checkpoint
		}
		if _, err := ResolveChain(filepath.Join(dir, e.Name())); err != nil {
			t.Errorf("survivor %s no longer resolves: %v", e.Name(), err)
		}
	}
}

func mustExist(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := os.Stat(filepath.Join(dir, n)); err != nil {
			t.Errorf("%s should have survived GC: %v", n, err)
		}
	}
}

func mustBeGone(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := os.Stat(filepath.Join(dir, n)); err == nil {
			t.Errorf("%s should have been collected", n)
		}
	}
}

func TestRetentionGCKeepsChainsClosed(t *testing.T) {
	dir := t.TempDir()
	base1 := writeLinkedCkpt(t, dir, 0, nil)
	d1 := writeLinkedCkpt(t, dir, 1, base1)
	writeLinkedCkpt(t, dir, 2, d1)
	base2 := writeLinkedCkpt(t, dir, 3, nil)
	d4 := writeLinkedCkpt(t, dir, 4, base2)
	writeLinkedCkpt(t, dir, 5, d4)

	// KeepLast=2 keeps steps 4 and 5; chain closure must pull in their
	// base at step 3 even though it is outside the window.
	if err := GC(dir, RetentionPolicy{KeepLast: 2}); err != nil {
		t.Fatalf("GC: %v", err)
	}
	mustExist(t, dir,
		ManifestFileName(3), ManifestFileName(4), ManifestFileName(5),
		ShardFileName(3, 0), ShardFileName(4, 0), ShardFileName(5, 0))
	mustBeGone(t, dir,
		ManifestFileName(0), ManifestFileName(1), ManifestFileName(2),
		ShardFileName(0, 0), ShardFileName(1, 0), ShardFileName(2, 0))
	assertAllSurvivorsResolvable(t, dir)
	if _, step, ok := LatestValid(dir); !ok || step != 5 {
		t.Fatalf("LatestValid after GC = (%d, %v), want step 5", step, ok)
	}
	// A second pass is a no-op.
	if err := GC(dir, RetentionPolicy{KeepLast: 2}); err != nil {
		t.Fatalf("second GC: %v", err)
	}
	mustExist(t, dir, ManifestFileName(3), ShardFileName(3, 0))
}

func TestRetentionGCKeepEveryAndProtection(t *testing.T) {
	dir := t.TempDir()
	base := writeLinkedCkpt(t, dir, 0, nil)
	d1 := writeLinkedCkpt(t, dir, 1, base)
	writeLinkedCkpt(t, dir, 2, d1)
	base2 := writeLinkedCkpt(t, dir, 3, nil)
	d4 := writeLinkedCkpt(t, dir, 4, base2)
	writeLinkedCkpt(t, dir, 5, d4)

	// An undecodable manifest and its step's shard: GC must not touch
	// either (conservative handling of a concurrent writer or damage).
	if err := os.WriteFile(filepath.Join(dir, ManifestFileName(7)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ShardFileName(7, 0)), []byte("inflight"), 0o644); err != nil {
		t.Fatal(err)
	}

	// KeepLast=1 keeps step 5 (+ chain 4, 3); KeepEvery=3 keeps 0 and 3.
	// Step 0 is a standalone full, so deltas 1 and 2 go.
	if err := GC(dir, RetentionPolicy{KeepLast: 1, KeepEvery: 3}); err != nil {
		t.Fatalf("GC: %v", err)
	}
	mustExist(t, dir,
		ManifestFileName(0), ManifestFileName(3), ManifestFileName(4), ManifestFileName(5),
		ShardFileName(0, 0), ShardFileName(3, 0), ShardFileName(4, 0), ShardFileName(5, 0),
		ManifestFileName(7), ShardFileName(7, 0))
	mustBeGone(t, dir,
		ManifestFileName(1), ManifestFileName(2),
		ShardFileName(1, 0), ShardFileName(2, 0))
	assertAllSurvivorsResolvable(t, dir)

	// Disabled policy never deletes.
	if err := GC(dir, RetentionPolicy{}); err != nil {
		t.Fatalf("disabled GC: %v", err)
	}
	mustExist(t, dir, ManifestFileName(0), ManifestFileName(5))
}
