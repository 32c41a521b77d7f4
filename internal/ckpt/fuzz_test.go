package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// chainSteps are the steps of the full + two-delta chain
// FuzzResolveChain attacks; the last one is the resolve target.
var chainSteps = [3]int{0, 2, 4}

// writeChain deposits the chain in dir and returns its manifests.
func writeChain(t testing.TB, dir string) [3]*Manifest {
	var ms [3]*Manifest
	var parent *Manifest
	for i, step := range chainSteps {
		ms[i] = writeLinkedCkpt(t, dir, step, parent)
		parent = ms[i]
	}
	return ms
}

// FuzzResolveChain overwrites one manifest of a real full + two-delta
// chain with the fuzzed bytes and resolves the newest link.
// ResolveChain must return an error or a base-first chain that starts
// at a full checkpoint, with strictly increasing steps and every
// delta's parent step and ID matching the link below it. It must never
// panic or loop.
func FuzzResolveChain(f *testing.F) {
	valid := writeChain(f, f.TempDir())
	for link, m := range valid {
		b := EncodeManifest(m)
		f.Add(uint8(link), b)
		for _, n := range []int{0, 12, len(b) / 2, len(b) - 1} {
			f.Add(uint8(link), b[:n])
		}
	}
	// Well-framed lies: a delta pointing at the wrong step, a parent ID
	// off by one character, a parent written by a different rank count.
	reenc := func(link int, edit func(m *Manifest)) {
		m := *valid[link]
		edit(&m)
		f.Add(uint8(link), EncodeManifest(&m))
	}
	reenc(2, func(m *Manifest) { m.ParentStep = 0 })
	reenc(1, func(m *Manifest) { m.ParentStep = 1 })
	reenc(2, func(m *Manifest) { m.ParentID = m.ParentID[:len(m.ParentID)-1] + "0" })
	reenc(1, func(m *Manifest) {
		m.NumRanks = 2
		m.Shards = append(m.Shards[:1:1], m.Shards[0])
		m.ID = ManifestID(m)
	})
	reenc(0, func(m *Manifest) { m.Kind = ShardDelta; m.ParentStep, m.ParentID = 0, m.ID })
	f.Fuzz(func(t *testing.T, link uint8, b []byte) {
		dir := t.TempDir()
		writeChain(t, dir)
		name := ManifestFileName(chainSteps[int(link)%len(chainSteps)])
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(dir, ManifestFileName(chainSteps[len(chainSteps)-1]))
		type result struct {
			chain []ChainLink
			err   error
		}
		done := make(chan result, 1)
		go func() {
			chain, err := ResolveChain(target)
			done <- result{chain, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ResolveChain did not return")
		}
		if r.err != nil {
			return
		}
		chain := r.chain
		if len(chain) == 0 || chain[len(chain)-1].Path != target {
			t.Fatalf("resolved chain does not end at the target: %d links", len(chain))
		}
		if chain[0].Manifest.Kind != ShardFull {
			t.Fatalf("chain base at step %d is not a full checkpoint", chain[0].Manifest.Step)
		}
		for i := 1; i < len(chain); i++ {
			m, parent := chain[i].Manifest, chain[i-1].Manifest
			if m.Kind != ShardDelta || m.Step <= parent.Step || m.ParentStep != parent.Step ||
				m.ParentID != ManifestID(parent) {
				t.Fatalf("link %d (step %d, parent %d %s) does not extend step %d (%s)",
					i, m.Step, m.ParentStep, m.ParentID, parent.Step, ManifestID(parent))
			}
		}
	})
}
