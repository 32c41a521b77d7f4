package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
)

// Elastic/incremental checkpoint acceptance tests: the cross-P restore
// matrix (any P_old -> any P_new, bit-for-bit per cell), delta-chain
// restores, and the crash-at-every-step torture run with incremental
// checkpoints on.
//
// All comparisons are per-cell (cellKey -> value): the per-cell physics
// is rank-count-invariant, but rank-local orderings (and the FP sum
// grouping behind reduced diagnostics like the shock circulation) are
// not, so cross-P assertions never compare flattened slices or series.

// cellMapOf is snapshotCellMap without the testing.T dependency, so
// SCMD rank goroutines can call it and report errors properly.
func cellMapOf(f *cca.Framework, fieldName string) (map[cellKey]float64, error) {
	comp, err := f.Lookup("grace")
	if err != nil {
		return nil, err
	}
	gc := comp.(*components.GrACEComponent)
	d := gc.Field(fieldName)
	if d == nil {
		return nil, fmt.Errorf("field %q not declared", fieldName)
	}
	h := gc.Hierarchy()
	out := make(map[cellKey]float64)
	for l := 0; l < h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for c := 0; c < d.NComp; c++ {
				for j := b.Lo[1]; j <= b.Hi[1]; j++ {
					for i := b.Lo[0]; i <= b.Hi[0]; i++ {
						out[cellKey{l, c, i, j}] = pd.At(c, i, j)
					}
				}
			}
		}
	}
	return out, nil
}

// runCkptWorld assembles a problem on every rank of w, wires the
// checkpoint component with the given options, runs the driver, and
// returns the union of all ranks' interior cells. Rank ownership is
// disjoint, so the union is the global field.
func runCkptWorld(w *mpi.World, assemble func(*cca.Framework) error, fieldName string, o CheckpointOptions) (map[cellKey]float64, error) {
	var mu sync.Mutex
	global := map[cellKey]float64{}
	total := 0
	res := cca.RunSCMDOn(w, Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := assemble(f); err != nil {
			return err
		}
		if err := WireCheckpointOpts(f, o); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		m, err := cellMapOf(f, fieldName)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		total += len(m)
		for k, v := range m {
			global[k] = v
		}
		return nil
	})
	if err := res.Err(); err != nil {
		return nil, err
	}
	if total != len(global) {
		return nil, fmt.Errorf("ranks own overlapping cells: %d scanned, %d distinct", total, len(global))
	}
	return global, nil
}

func runCkptGlobal(t *testing.T, ranks int, assemble func(*cca.Framework) error, fieldName string, o CheckpointOptions) map[cellKey]float64 {
	t.Helper()
	m, err := runCkptWorld(mpi.NewWorld(ranks, mpi.CPlantModel), assemble, fieldName, o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// assertSameCellMap demands identical key sets and bit-identical values
// — full coverage in both directions.
func assertSameCellMap(t *testing.T, label string, ref, got map[cellKey]float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: cell counts differ: ref %d, got %d (hierarchies diverged)", label, len(ref), len(got))
	}
	for k, want := range ref {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: cell %+v missing", label, k)
		}
		if g != want {
			t.Fatalf("%s: cell %+v differs: ref %v, got %v", label, k, want, g)
		}
	}
}

func assembleFlame(params []Param) func(*cca.Framework) error {
	return func(f *cca.Framework) error { return AssembleRequest(f, RunRequest{Problem: "flame", Params: params}) }
}

func assembleShock(params []Param) func(*cca.Framework) error {
	return func(f *cca.Framework) error { return AssembleRequest(f, RunRequest{Problem: "shock", Params: params}) }
}

// elasticMatrix runs the full cross-P restore matrix for one problem:
// uninterrupted references at every P_new, checkpointed write runs at
// every P_old, then all |P|x|P| restore pairs, each continued to the
// end and compared per cell against the P_new reference.
func elasticMatrix(t *testing.T, label, fieldName string, assemble func(*cca.Framework) error, saveStep int) {
	ps := []int{1, 2, 4}
	refs := map[int]map[cellKey]float64{}
	for _, p := range ps {
		refs[p] = runCkptGlobal(t, p, assemble, fieldName, CheckpointOptions{Dir: t.TempDir()})
	}
	// The per-cell state must itself be P-invariant, or the matrix below
	// proves nothing.
	assertSameCellMap(t, label+": reference P=2 vs P=1", refs[1], refs[2])
	assertSameCellMap(t, label+": reference P=4 vs P=1", refs[1], refs[4])

	dirs := map[int]string{}
	for _, p := range ps {
		dirs[p] = t.TempDir()
		got := runCkptGlobal(t, p, assemble, fieldName, CheckpointOptions{Every: 2, Dir: dirs[p]})
		assertSameCellMap(t, fmt.Sprintf("%s: ckpt-wired write run P=%d", label, p), refs[p], got)
	}
	for _, pOld := range ps {
		manifest := filepath.Join(dirs[pOld], ckpt.ManifestFileName(saveStep))
		for _, pNew := range ps {
			got := runCkptGlobal(t, pNew, assemble, fieldName,
				CheckpointOptions{Dir: t.TempDir(), Restore: manifest})
			assertSameCellMap(t, fmt.Sprintf("%s: restore P%d->P%d", label, pOld, pNew), refs[pNew], got)
		}
	}
}

// TestElasticRestoreMatrixFlame: all 9 P_old -> P_new pairs for the
// reaction-diffusion flame (RKC diffusion + implicit chemistry + a
// regrid between the restore point and the end), bit-for-bit per cell.
func TestElasticRestoreMatrixFlame(t *testing.T) {
	elasticMatrix(t, "flame", "phi", assembleFlame(flameCkptParams()), 1)
}

func shockCkptParams() []Param {
	return []Param{
		{"grace", "nx", "32"}, {"grace", "ny", "16"},
		{"grace", "lx", "2.0"}, {"grace", "ly", "1.0"},
		{"grace", "maxLevels", "2"},
		{"driver", "tEnd", "1.0"}, {"driver", "maxSteps", "6"},
		{"driver", "regridEvery", "2"},
	}
}

// TestElasticRestoreMatrixShock: the same 9 pairs for the RK2 Euler
// shock-interface run (CFL dt, periodic regrids). The restore point
// sits mid-chain so the continuation crosses a regrid at every P.
func TestElasticRestoreMatrixShock(t *testing.T) {
	elasticMatrix(t, "shock", "U", assembleShock(shockCkptParams()), 3)
}

// TestSameRankRestoreIsExact: at the writer's rank count the one
// restore path must hand each rank back exactly what it saved, before
// the first step — the hierarchy (IDs and owners included), every local
// patch's raw array with its ghosts, and the rank's own virtual clock,
// comm stats and solver counters. Both drivers run on 2 ranks with
// regrids before the save; the flame's per-rank CVODE totals keep the
// counter check from being vacuous.
func TestSameRankRestoreIsExact(t *testing.T) {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, tc := range []struct {
		label, fieldName string
		assemble         func(*cca.Framework) error
		step             int
	}{
		{"shock", "U", assembleShock(shockCkptParams()), 3},
		{"flame", "phi", assembleFlame(flameCkptParams()), 1},
	} {
		dir, scratch := t.TempDir(), t.TempDir()
		runCkptGlobal(t, 2, tc.assemble, tc.fieldName, CheckpointOptions{Every: 2, Dir: dir})
		manifest := filepath.Join(dir, ckpt.ManifestFileName(tc.step))
		res := cca.RunSCMDOn(mpi.NewWorld(2, mpi.CPlantModel), Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
			if err := tc.assemble(f); err != nil {
				return err
			}
			if err := WireCheckpointOpts(f, CheckpointOptions{Dir: scratch, Restore: manifest}); err != nil {
				return err
			}
			data, err := os.ReadFile(filepath.Join(dir, ckpt.ShardFileName(tc.step, comm.Rank())))
			if err != nil {
				return err
			}
			saved, err := ckpt.DecodeShard(data)
			if err != nil {
				return err
			}
			if saved.Snapshot.Regrids == 0 || (tc.label == "flame" && len(saved.Meta.Counters) == 0) {
				return fmt.Errorf("%s rank %d: no regrid or no counters before the save; the check would be vacuous", tc.label, comm.Rank())
			}
			ck, err := f.Lookup("ckpt")
			if err != nil {
				return err
			}
			meta, err := ck.(*components.CheckpointComponent).Restore(saved.Meta.Driver)
			if err != nil {
				return err
			}
			comp, err := f.Lookup("grace")
			if err != nil {
				return err
			}
			gc := comp.(*components.GrACEComponent)
			if got := gc.Hierarchy().Snapshot(); !reflect.DeepEqual(got, saved.Snapshot) {
				return fmt.Errorf("%s rank %d: hierarchy %+v, saved %+v", tc.label, comm.Rank(), got, saved.Snapshot)
			}
			for _, fs := range saved.Fields {
				got := map[int][]float64{}
				gc.Field(fs.Name).ForEachLocal(func(pd *field.PatchData) { got[pd.Patch.ID] = pd.RawData() })
				if len(got) != len(fs.Patches) {
					return fmt.Errorf("%s rank %d field %s: %d local patches, %d saved", tc.label, comm.Rank(), fs.Name, len(got), len(fs.Patches))
				}
				for _, p := range fs.Patches {
					if !slices.EqualFunc(got[p.ID], p.Data, bits) {
						return fmt.Errorf("%s rank %d field %s: patch %d raw data differs from its saved blob", tc.label, comm.Rank(), fs.Name, p.ID)
					}
				}
			}
			if vt := comm.VirtualTime(); vt != saved.Meta.VirtualTime {
				return fmt.Errorf("%s rank %d: virtual time %v, saved %v", tc.label, comm.Rank(), vt, saved.Meta.VirtualTime)
			}
			if st := comm.Stats(); st != saved.Meta.Comm {
				return fmt.Errorf("%s rank %d: comm stats %+v, saved %+v", tc.label, comm.Rank(), st, saved.Meta.Comm)
			}
			if !reflect.DeepEqual(meta.Counters, saved.Meta.Counters) {
				return fmt.Errorf("%s rank %d: counters %v, saved %v", tc.label, comm.Rank(), meta.Counters, saved.Meta.Counters)
			}
			return nil
		})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalRestoreThroughDeltaChain runs the flame with
// incremental checkpoints every step, producing the chain full@0 <-
// delta@1 <- ... <- delta@5, and restores through a 5-link chain —
// serially (exact path) and onto a different rank count (elastic path)
// — each continued run bit-for-bit per cell. The flame runs once
// without regrids and once regridding every 2 steps, and the shock
// regrids every 2 steps onto a moving layout: a patch ID names one
// (level, box) for the whole run, so the chain holds deltas across
// each regrid.
func TestIncrementalRestoreThroughDeltaChain(t *testing.T) {
	flame := func(regridEvery string) []Param {
		return []Param{
			{"grace", "nx", "16"}, {"grace", "ny", "16"},
			{"grace", "maxLevels", "2"},
			{"driver", "steps", "6"}, {"driver", "dt", "1e-7"},
			{"driver", "regridEvery", regridEvery},
		}
	}
	for _, tc := range []struct {
		label, fieldName string
		assemble         func(*cca.Framework) error
		regrids, moves   bool // the chain spans a regrid; one changes the layout
	}{
		{"flame regridEvery=0", "phi", assembleFlame(flame("0")), false, false},
		{"flame regridEvery=2", "phi", assembleFlame(flame("2")), true, false},
		{"shock regridEvery=2", "U", assembleShock(shockCkptParams()), true, true},
	} {
		t.Run(tc.label, func(t *testing.T) {
			assemble, fieldName := tc.assemble, tc.fieldName
			dir := t.TempDir()
			ref := runCkptGlobal(t, 1, assemble, fieldName, CheckpointOptions{Dir: t.TempDir()})
			wrote := runCkptGlobal(t, 1, assemble, fieldName,
				CheckpointOptions{Every: 1, Dir: dir, Incremental: true, FullEvery: 8})
			assertSameCellMap(t, "incremental write run", ref, wrote)

			// The chain must really be incremental: one full base, deltas after.
			target := filepath.Join(dir, ckpt.ManifestFileName(4))
			chain, err := ckpt.ResolveChain(target)
			if err != nil {
				t.Fatal(err)
			}
			if len(chain) != 5 {
				t.Fatalf("chain to step 4 has %d links, want 5 (full@0 + 4 deltas)", len(chain))
			}
			regrids := make([]int, len(chain))
			moves := false
			var prev []amr.PatchSnapshot
			for i, l := range chain {
				wantKind := ckpt.ShardDelta
				if i == 0 {
					wantKind = ckpt.ShardFull
				}
				if l.Manifest.Kind != wantKind {
					t.Fatalf("chain link %d (step %d) is %v, want %v", i, l.Manifest.Step, l.Manifest.Kind, wantKind)
				}
				data, err := os.ReadFile(filepath.Join(dir, l.Manifest.Shards[0].File))
				if err != nil {
					t.Fatal(err)
				}
				shard, err := ckpt.DecodeShard(data)
				if err != nil {
					t.Fatal(err)
				}
				regrids[i] = shard.Snapshot.Regrids
				if i > 0 && !reflect.DeepEqual(prev, shard.Snapshot.Patches) {
					moves = true
				}
				prev = shard.Snapshot.Patches
			}
			if spans := regrids[len(regrids)-1] > regrids[0]; spans != tc.regrids || moves != tc.moves {
				t.Fatalf("chain regrid counts %v: spans a regrid %v, changes the layout %v; want %v, %v",
					regrids, spans, moves, tc.regrids, tc.moves)
			}

			got := runCkptGlobal(t, 1, assemble, fieldName, CheckpointOptions{Dir: t.TempDir(), Restore: target})
			assertSameCellMap(t, "restore through 5-link chain", ref, got)

			// Elastic restore from the same delta chain: P_old=1 -> P_new=4.
			ref4 := runCkptGlobal(t, 4, assemble, fieldName, CheckpointOptions{Dir: t.TempDir()})
			assertSameCellMap(t, "incremental reference P=4 vs P=1", ref, ref4)
			got4 := runCkptGlobal(t, 4, assemble, fieldName, CheckpointOptions{Dir: t.TempDir(), Restore: target})
			assertSameCellMap(t, "elastic restore through 5-link chain P1->P4", ref4, got4)
		})
	}
}

// TestCompressedCheckpointRestoreBitForBit: gzip section framing is
// purely an encoding concern — a compressed checkpoint restores the
// same bits.
func TestCompressedCheckpointRestoreBitForBit(t *testing.T) {
	params := flameCkptParams()
	assemble := assembleFlame(params)
	dir := t.TempDir()
	ref := runCkptGlobal(t, 2, assemble, "phi", CheckpointOptions{Dir: t.TempDir()})
	wrote := runCkptGlobal(t, 2, assemble, "phi", CheckpointOptions{Every: 2, Dir: dir, Compress: true})
	assertSameCellMap(t, "compressed write run", ref, wrote)
	got := runCkptGlobal(t, 2, assemble, "phi",
		CheckpointOptions{Dir: t.TempDir(), Restore: filepath.Join(dir, ckpt.ManifestFileName(1))})
	assertSameCellMap(t, "restore from compressed checkpoint", ref, got)
}

// TestDeltaChainTortureCrashEveryStep is the incremental-mode torture
// run: with checkpoints (and deltas) written after every step, a rank
// is killed at every step of the run in turn — both mid-compute and,
// using the send counter recorded in the reference shards, exactly in
// the window between a delta shard's write and its manifest commit. The
// supervisor must recover every time, the restore point must never be
// the torn checkpoint, and the recovered run must match the fault-free
// reference bit-for-bit per cell.
func TestDeltaChainTortureCrashEveryStep(t *testing.T) {
	const steps, ranks = 4, 4
	params := flameCkptParams()
	assemble := assembleFlame(params)
	opts := func(dir, restore string) CheckpointOptions {
		return CheckpointOptions{Every: 1, Dir: dir, Restore: restore, Incremental: true, FullEvery: 8}
	}

	refDir := t.TempDir()
	ref, err := runCkptWorld(mpi.NewWorld(ranks, mpi.CPlantModel), assemble, "phi", opts(refDir, ""))
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1's send count at each save: the save snapshots comm stats
	// into the shard before the digest gather, so sends[s]+1 is exactly
	// the gather send — the window between shard write and manifest
	// commit.
	sends := make([]int, steps)
	for s := 0; s < steps; s++ {
		data, err := os.ReadFile(filepath.Join(refDir, ckpt.ShardFileName(s, 1)))
		if err != nil {
			t.Fatal(err)
		}
		shard, err := ckpt.DecodeShard(data)
		if err != nil {
			t.Fatal(err)
		}
		sends[s] = shard.Meta.Comm.Sends
	}

	type tortureCase struct {
		name      string
		fault     mpi.Fault
		faultStep int // no checkpoint at or after this step is durable
	}
	var cases []tortureCase
	for s := 0; s < steps; s++ {
		cases = append(cases, tortureCase{
			name:      fmt.Sprintf("manifest-window@%d", s),
			fault:     mpi.Fault{Rank: 1, Kind: mpi.FaultKill, AtStep: -1, AtSend: sends[s] + 1},
			faultStep: s,
		})
	}
	for s := 1; s < steps; s++ {
		cases = append(cases, tortureCase{
			name:      fmt.Sprintf("mid-compute@%d", s),
			fault:     mpi.Fault{Rank: 1, Kind: mpi.FaultKill, AtStep: s, AtSend: -1},
			faultStep: s,
		})
	}

	for _, tc := range cases {
		dir := t.TempDir()
		var restores []string
		var final map[cellKey]float64
		attempts := 0
		err := ckpt.Supervise(dir, 2, func(restore string) error {
			restores = append(restores, restore)
			attempts++
			w := mpi.NewWorld(ranks, mpi.CPlantModel)
			if attempts == 1 {
				w.InjectFault(tc.fault)
			}
			m, err := runCkptWorld(w, assemble, "phi", opts(dir, restore))
			if err != nil {
				return err
			}
			final = m
			return nil
		})
		if err != nil {
			t.Fatalf("%s: supervised run failed: %v", tc.name, err)
		}
		if attempts != 2 {
			t.Fatalf("%s: attempts = %d, want 2", tc.name, attempts)
		}
		// LatestValid must never have handed the retry a torn chain: the
		// restore point is either cold or a manifest that fully resolves
		// — and never the checkpoint the kill interrupted (its manifest
		// was never committed, even when its shards landed).
		if r := restores[1]; r != "" {
			chain, err := ckpt.ResolveChain(r)
			if err != nil {
				t.Fatalf("%s: retry restored from unresolvable %s: %v", tc.name, r, err)
			}
			if s := chain[len(chain)-1].Manifest.Step; s >= tc.faultStep {
				t.Fatalf("%s: retry restored from step %d, but nothing at or after step %d was durable",
					tc.name, s, tc.faultStep)
			}
		}
		assertSameCellMap(t, tc.name+" recovered run", ref, final)
	}
}
