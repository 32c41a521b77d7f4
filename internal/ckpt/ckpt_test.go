package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/mpi"
)

func testShard() *Shard {
	return &Shard{
		Rank:     1,
		NumRanks: 4,
		Snapshot: amr.Snapshot{
			Domain:        amr.NewBox(0, 0, 31, 31),
			Ratio:         2,
			MaxLevels:     3,
			NumRanks:      4,
			NestingBuffer: 1,
			Regrids:       7,
			NextID:        42,
			Patches: []amr.PatchSnapshot{
				{ID: 0, Level: 0, Box: amr.NewBox(0, 0, 31, 15), Owner: 0},
				{ID: 1, Level: 0, Box: amr.NewBox(0, 16, 31, 31), Owner: 1},
				{ID: 40, Level: 1, Box: amr.NewBox(8, 8, 39, 39), Owner: 1},
			},
		},
		Fields: []FieldShard{
			{
				Name:  "U",
				NComp: 2,
				Ghost: 2,
				Names: []string{"rho", "e"},
				Patches: []PatchBlob{
					{ID: 1, Data: []float64{1.5, -2.25, math.Pi, 0, math.Inf(1), math.SmallestNonzeroFloat64}},
					{ID: 40, Data: []float64{3e-300, 7.125}},
				},
			},
			{Name: "phi", NComp: 1, Ghost: 1, Names: []string{"T"},
				Patches: []PatchBlob{{ID: 1, Data: []float64{300.0, 1200.5}}}},
		},
		Meta: Meta{
			Driver:      "flame",
			Step:        17,
			Time:        1.7e-6,
			VirtualTime: 0.125,
			Comm:        mpi.CommStats{Sends: 9, Recvs: 8, WordsSent: 1024, CommSeconds: 0.5, HiddenSeconds: 0.25},
			Counters:    map[string]float64{"cvode.steps": 123, "cvode.rhs": 456},
			Series:      map[string][]float64{"times": {0.1, 0.2}, "circ": {1.5, 1.25}},
		},
	}
}

func TestShardRoundTrip(t *testing.T) {
	want := testShard()
	for _, pool := range []*exec.Pool{nil, exec.Default()} {
		data := EncodeShard(want, pool)
		got, err := DecodeShard(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", want, got)
		}
	}
}

// Encoding must be deterministic (maps are sorted) — the manifest CRC
// depends on it, and so does comparing checkpoints across runs.
func TestEncodeDeterministic(t *testing.T) {
	a := EncodeShard(testShard(), nil)
	b := EncodeShard(testShard(), exec.Default())
	if string(a) != string(b) {
		t.Fatal("serial and pooled encodes differ")
	}
}

// Fuzz-style corruption sweep: truncate at every length and flip a byte
// at every offset; decode must always return an error and never panic.
func TestDecodeShardCorruptionNeverPanics(t *testing.T) {
	data := EncodeShard(testShard(), nil)
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
		// A flip inside a float64 payload still decodes to *something*;
		// the CRC is what must catch it. Every flip must error out.
		check(fmt.Sprintf("flip@%d", i), mut)
	}
}

// Only this build's version decodes: version 1 and any newer version
// are refused with a version error, for shards and manifests alike.
// The version word follows the 8-byte magic in both.
func TestDecodeShardRejectsVersionSkew(t *testing.T) {
	m := &Manifest{Step: 3, NumRanks: 1, ParentStep: -1, Shards: []ManifestEntry{{File: ShardFileName(3, 0)}}}
	for _, ver := range []uint32{1, FormatVersion + 1} {
		shard := EncodeShard(testShard(), nil)
		binary.LittleEndian.PutUint32(shard[8:], ver)
		if _, err := DecodeShard(shard); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version-%d shard: err = %v, want a version error", ver, err)
		}
		man := EncodeManifest(m)
		binary.LittleEndian.PutUint32(man[8:], ver)
		if _, err := DecodeManifest(man); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version-%d manifest: err = %v, want a version error", ver, err)
		}
	}
}

func TestManifestRoundTripAndValidate(t *testing.T) {
	dir := t.TempDir()
	shard := EncodeShard(testShard(), nil)
	shardName := ShardFileName(17, 1)
	if err := os.WriteFile(filepath.Join(dir, shardName), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	size, crc := Digest(shard)
	m := &Manifest{Step: 17, NumRanks: 1, Shards: []ManifestEntry{{File: shardName, Size: size, CRC: crc}}}
	mPath := filepath.Join(dir, ManifestFileName(17))
	if err := os.WriteFile(mPath, EncodeManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ReadManifest(mPath)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("manifest mismatch: want %+v got %+v", m, got)
	}

	path, step, ok := LatestValid(dir)
	if !ok || step != 17 || path != mPath {
		t.Fatalf("LatestValid = (%q, %d, %v), want (%q, 17, true)", path, step, ok, mPath)
	}

	// Damage the shard: the checkpoint must stop validating.
	shard[len(shard)/2] ^= 1
	if err := os.WriteFile(filepath.Join(dir, shardName), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := LatestValid(dir); ok {
		t.Fatal("LatestValid accepted a checkpoint with a damaged shard")
	}
}

// LatestValid must skip a newer-but-broken checkpoint and fall back to
// the older durable one — the crash-mid-write recovery property.
func TestLatestValidFallsBack(t *testing.T) {
	dir := t.TempDir()
	writeCkpt := func(step int, corruptShard bool) {
		shard := EncodeShard(testShard(), nil)
		name := ShardFileName(step, 1)
		size, crc := Digest(shard)
		if corruptShard {
			shard = shard[:len(shard)-3] // torn write
		}
		if err := os.WriteFile(filepath.Join(dir, name), shard, 0o644); err != nil {
			t.Fatal(err)
		}
		m := &Manifest{Step: step, NumRanks: 1, Shards: []ManifestEntry{{File: name, Size: size, CRC: crc}}}
		if err := os.WriteFile(filepath.Join(dir, ManifestFileName(step)), EncodeManifest(m), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCkpt(5, false)
	writeCkpt(9, true)
	// A manifest with no shard at all (writer died between the two).
	orphan := &Manifest{Step: 12, NumRanks: 1, Shards: []ManifestEntry{{File: ShardFileName(12, 1), Size: 10, CRC: 1}}}
	if err := os.WriteFile(filepath.Join(dir, ManifestFileName(12)), EncodeManifest(orphan), 0o644); err != nil {
		t.Fatal(err)
	}

	path, step, ok := LatestValid(dir)
	if !ok || step != 5 {
		t.Fatalf("LatestValid = (%q, %d, %v), want step 5", path, step, ok)
	}
}

func TestWriterAsyncFlush(t *testing.T) {
	dir := t.TempDir()
	w := NewWriter(nil)
	var want [][]byte
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("payload-%d", i))
		want = append(want, data)
		w.Enqueue(filepath.Join(dir, fmt.Sprintf("f%d", i)), data)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := range want {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("f%d", i)))
		if err != nil || string(got) != string(want[i]) {
			t.Fatalf("file %d: %q, %v", i, got, err)
		}
	}
	// No .tmp residue.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	// Writer is reusable after Flush.
	w.Enqueue(filepath.Join(dir, "again"), []byte("x"))
	if err := w.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
}

func TestWriterReportsErrors(t *testing.T) {
	w := NewWriter(nil)
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Writing under a regular file must fail (MkdirAll errors).
	w.Enqueue(filepath.Join(blocker, "sub", "f"), []byte("x"))
	if err := w.Flush(); err == nil {
		t.Fatal("Flush swallowed a write error")
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("error not cleared by Flush: %v", err)
	}
}

func TestSuperviseRetriesOnRankFailure(t *testing.T) {
	dir := t.TempDir()
	// Durable checkpoint at step 5.
	shard := EncodeShard(testShard(), nil)
	name := ShardFileName(5, 1)
	size, crc := Digest(shard)
	if err := os.WriteFile(filepath.Join(dir, name), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Step: 5, NumRanks: 1, Shards: []ManifestEntry{{File: name, Size: size, CRC: crc}}}
	mPath := filepath.Join(dir, ManifestFileName(5))
	if err := os.WriteFile(mPath, EncodeManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}

	var restores []string
	calls := 0
	err := Supervise(dir, 3, func(restore string) error {
		restores = append(restores, restore)
		calls++
		if calls < 3 {
			return &mpi.FaultError{Rank: 1, At: "step 7"}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	if calls != 3 {
		t.Fatalf("attempt ran %d times, want 3", calls)
	}
	if restores[0] != "" || restores[1] != mPath || restores[2] != mPath {
		t.Fatalf("restore sequence %q, want [\"\", %q, %q]", restores, mPath, mPath)
	}

	// Non-fault errors propagate immediately.
	calls = 0
	wantErr := errors.New("boom")
	err = Supervise(dir, 3, func(string) error { calls++; return wantErr })
	if !errors.Is(err, wantErr) || calls != 1 {
		t.Fatalf("non-fault error: err=%v calls=%d", err, calls)
	}

	// Retry budget exhausts.
	calls = 0
	err = Supervise(dir, 2, func(string) error { calls++; return &mpi.FaultError{Rank: 0, At: "x"} })
	if !errors.Is(err, mpi.ErrRankFailed) || calls != 3 {
		t.Fatalf("exhausted retries: err=%v calls=%d", err, calls)
	}
}

// writeDurableCkpt deposits a complete single-rank checkpoint (shard +
// manifest) at the given step and returns the manifest path.
func writeDurableCkpt(t *testing.T, dir string, step int) string {
	t.Helper()
	shard := EncodeShard(testShard(), nil)
	name := ShardFileName(step, 0)
	size, crc := Digest(shard)
	if err := os.WriteFile(filepath.Join(dir, name), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Step: step, NumRanks: 1, Shards: []ManifestEntry{{File: name, Size: size, CRC: crc}}}
	m.ID = ManifestID(m)
	mPath := filepath.Join(dir, ManifestFileName(step))
	if err := os.WriteFile(mPath, EncodeManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}
	return mPath
}

// Regression: Supervise must re-read the checkpoint directory before
// EVERY relaunch, not reuse a restore point captured at the previous
// failure. Checkpoints that land during a failed attempt (the async
// writer finishing its last manifest as the job dies) must be honored,
// and checkpoints that rot between attempts must be skipped.
func TestSuperviseReReadsManifestEachRetry(t *testing.T) {
	dir := t.TempDir()
	m5 := writeDurableCkpt(t, dir, 5)

	var restores []string
	calls := 0
	err := Supervise(dir, 5, func(restore string) error {
		restores = append(restores, restore)
		calls++
		switch calls {
		case 1:
			// The dying attempt's writer lands a newer checkpoint.
			writeDurableCkpt(t, dir, 9)
			return &mpi.FaultError{Rank: 1, At: "step 9"}
		case 2:
			// The newest checkpoint rots before the next relaunch.
			if err := os.Truncate(filepath.Join(dir, ShardFileName(9, 0)), 10); err != nil {
				t.Fatal(err)
			}
			return &mpi.FaultError{Rank: 1, At: "step 9 again"}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	m9 := filepath.Join(dir, ManifestFileName(9))
	want := []string{"", m9, m5}
	if len(restores) != len(want) {
		t.Fatalf("restore sequence %q, want %q", restores, want)
	}
	for i := range want {
		if restores[i] != want[i] {
			t.Fatalf("restore[%d] = %q, want %q (full sequence %q)", i, restores[i], want[i], restores)
		}
	}
}
