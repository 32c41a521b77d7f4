package ckpt

import (
	"bytes"
	"reflect"
	"testing"

	"ccahydro/internal/amr"
)

// corruptions seeds a fuzz corpus with valid encoder output plus the
// damage the corruption sweeps apply: truncations, bit flips, and the
// retired version 1 in the version word.
func corruptions(f *testing.F, valid ...[]byte) {
	for _, b := range valid {
		f.Add(b)
		for _, n := range []int{0, 8, 12, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
		for _, i := range []int{8, 12, 20, len(b) / 2, len(b) - 1} {
			mut := bytes.Clone(b)
			mut[i] ^= 0x40
			f.Add(mut)
		}
		v1 := bytes.Clone(b)
		v1[8] = 1
		f.Add(v1)
	}
}

// hostileSnapshots are well-framed shards (valid CRCs, so the decoder
// accepts them) whose hierarchy geometry is nonsense. Byte mutations
// rarely survive the section CRCs, so these seeds are what carries
// hostile geometry through to amr.FromSnapshot.
func hostileSnapshots() [][]byte {
	edits := []func(s *amr.Snapshot){
		// Panicked with "makeslice: len out of range" before FromSnapshot
		// bounded the level table by the patch count.
		func(s *amr.Snapshot) { s.MaxLevels = 1 << 62; s.Patches[2].Level = 1<<62 - 1 },
		func(s *amr.Snapshot) { s.MaxLevels = 1 << 20; s.Patches[2].Level = 1 << 19 },
		func(s *amr.Snapshot) { s.Ratio = 1 << 62 },
		func(s *amr.Snapshot) { s.Patches[0].Box = amr.NewBox(-1<<62, -1<<62, 1<<62, 1<<62) },
	}
	var out [][]byte
	for _, edit := range edits {
		sh := testShard()
		edit(&sh.Snapshot)
		out = append(out, EncodeShard(sh, nil))
	}
	return out
}

// FuzzDecodeShard: DecodeShard never panics, any shard it accepts
// re-encodes (raw and gzip) to bytes that decode to the same shard, bit
// for bit, and its hierarchy snapshot either rebuilds or is refused by
// amr.FromSnapshot — never a panic.
func FuzzDecodeShard(f *testing.F) {
	delta := compressibleShard(256)
	delta.Kind, delta.ParentStep = ShardDelta, 11
	corruptions(f, EncodeShard(testShard(), nil), EncodeShardOpts(delta, nil, false),
		EncodeShardOpts(compressibleShard(4096), nil, true))
	for _, b := range hostileSnapshots() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeShard(b)
		if err != nil {
			return
		}
		if h, err := amr.FromSnapshot(s.Snapshot); err == nil && h == nil {
			t.Fatal("FromSnapshot returned neither a hierarchy nor an error")
		}
		want := EncodeShard(s, nil)
		for _, gz := range []bool{false, true} {
			s2, err := DecodeShard(EncodeShardOpts(s, nil, gz))
			if err != nil {
				t.Fatalf("accepted shard re-encoded (gzip=%v) fails to decode: %v", gz, err)
			}
			// Compare encodings, not structs: equal bits, NaN payloads included.
			if !bytes.Equal(EncodeShard(s2, nil), want) {
				t.Fatalf("accepted shard does not round-trip (gzip=%v)", gz)
			}
		}
	})
}

// FuzzDecodeManifest: DecodeManifest never panics, and any manifest it
// accepts round-trips through EncodeManifest.
func FuzzDecodeManifest(f *testing.F) {
	full := &Manifest{Step: 4, NumRanks: 2, ParentStep: -1,
		Shards: []ManifestEntry{{ShardFileName(4, 0), 100, 7}, {ShardFileName(4, 1), 200, 9}}}
	full.ID = ManifestID(full)
	delta := &Manifest{Step: 5, NumRanks: 1, Kind: ShardDelta, ParentStep: 4, ParentID: full.ID,
		Shards: []ManifestEntry{{ShardFileName(5, 0), 50, 3}}}
	corruptions(f, EncodeManifest(full), EncodeManifest(delta))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		m2, err := DecodeManifest(EncodeManifest(m))
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("accepted manifest does not round-trip: %v", err)
		}
	})
}
