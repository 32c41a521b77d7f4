package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/cvode"
	"ccahydro/internal/exec"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
)

// Checkpoint/restart acceptance tests: a run checkpointed at step k and
// restored must be bit-for-bit the uninterrupted run — same fields,
// same diagnostics — for both drivers, serial and rank-parallel, and
// recovery from an injected rank failure must land on the same state.

func flameCkptParams() []Param {
	return []Param{
		{"grace", "nx", "16"}, {"grace", "ny", "16"},
		{"grace", "maxLevels", "2"},
		{"driver", "steps", "4"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "2"},
	}
}

// snapshotFieldOf is snapshotField without the testing.T dependency, so
// SCMD rank goroutines can call it.
func snapshotFieldOf(f *cca.Framework, fieldName string) ([]float64, error) {
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
	var out []float64
	for l := 0; l < h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for c := 0; c < d.NComp; c++ {
				for j := b.Lo[1]; j <= b.Hi[1]; j++ {
					for i := b.Lo[0]; i <= b.Hi[0]; i++ {
						out = append(out, pd.At(c, i, j))
					}
				}
			}
		}
	}
	return out, nil
}

func assertSameField(t *testing.T, label string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: field sizes differ: %d vs %d (hierarchies diverged)", label, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: cell %d differs: %v vs %v", label, i, ref[i], got[i])
		}
	}
}

// runFlameCkpt assembles the flame with a CheckpointComponent wired in
// and runs it, returning the driver, the final field and the CVODE
// totals. A non-nil session is attached before assembly, so every wire
// is fetched through its interceptor proxy.
func runFlameCkpt(t *testing.T, session *obs.Obs, dir, restore string, every int, params []Param) (*components.RDDriver, []float64, cvode.Stats) {
	t.Helper()
	f := cca.NewFramework(Repo(), nil)
	if session != nil {
		f.SetObservability(session)
	}
	if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: params}); err != nil {
		t.Fatal(err)
	}
	if err := WireCheckpointOpts(f, CheckpointOptions{Dir: dir, Restore: restore, Every: every}); err != nil {
		t.Fatal(err)
	}
	if err := f.Go("driver", "go"); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshotFieldOf(f, "phi")
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := f.Lookup("driver")
	return comp.(*components.RDDriver), snap, cvodeStats(t, f)
}

// TestFlameRestoreBitForBitEveryStep checkpoints the flame after every
// step, then restores from EVERY checkpoint in turn and finishes the
// run — each continuation must be bit-for-bit the uninterrupted run.
// RKC diffusion, implicit chemistry, and a regrid all sit between
// checkpoints, so this covers the full restored-state surface
// (hierarchy layout, field bits including ghosts, step counters). The
// macro step is large enough that CVODE's error test rejects a few
// steps, so the restored solver totals cover that counter too.
func TestFlameRestoreBitForBitEveryStep(t *testing.T) {
	params := append(flameCkptParams(), Param{"driver", "dt", "1e-6"})
	const steps = 4

	// Reference: no checkpointing wired at all.
	drRef, fRef, err := RunReactionDiffusion(nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	ref := snapshotField(t, fRef, "phi")

	// Write run: checkpoint after every step. Wiring the component must
	// not perturb the physics.
	dir := t.TempDir()
	drW, wrote, stW := runFlameCkpt(t, nil, dir, "", 1, params)
	assertSameField(t, "ckpt-wired run vs reference", ref, wrote)
	if drW.TMax != drRef.TMax || drW.TMin != drRef.TMin {
		t.Fatalf("ckpt-wired extrema (%v,%v) != reference (%v,%v)", drW.TMax, drW.TMin, drRef.TMax, drRef.TMin)
	}
	// The CVODE totals ride in the checkpoint: every continuation must
	// end on the uninterrupted run's counts, error-test failures included.
	if stW.ErrTestFails == 0 {
		t.Fatal("the flame recorded no CVODE error-test failures; the restore check below would be vacuous")
	}

	for k := 0; k < steps; k++ {
		manifest := filepath.Join(dir, ckpt.ManifestFileName(k))
		dr, got, st := runFlameCkpt(t, nil, t.TempDir(), manifest, 0, params)
		assertSameField(t, fmt.Sprintf("restore from step %d", k), ref, got)
		if dr.TMax != drRef.TMax || dr.TMin != drRef.TMin {
			t.Fatalf("restore from step %d: extrema (%v,%v) != reference (%v,%v)",
				k, dr.TMax, dr.TMin, drRef.TMax, drRef.TMin)
		}
		if st != stW {
			t.Fatalf("restore from step %d: CVODE totals %+v, uninterrupted %+v", k, st, stW)
		}
	}
}

// TestFlameRestoreObservedCounters repeats the restore check with an
// observability session attached to both runs, so the driver reaches
// the chemistry, and the chemistry the integrator, through interceptor
// proxies: the checkpointed CVODE totals must cross both proxies on
// save and on restore, and the continuation must end on the
// uninterrupted run's totals, error-test failures included. A width-4
// pool makes the cells integrate through the proxied per-worker
// integrators.
func TestFlameRestoreObservedCounters(t *testing.T) {
	restoreDefaultPool(t)
	exec.SetDefaultWidth(4)
	params := append(flameCkptParams(), Param{"driver", "dt", "1e-6"})

	// proxied fails the test unless the run's integrator wire recorded
	// calls through its proxy.
	proxied := func(g *obs.Group) {
		t.Helper()
		name := obs.PortCallName("implicit", "integrator", "IntegrateTo")
		for _, h := range g.MergedSnapshot().Histograms {
			if h.Name == name && h.Count > 0 {
				return
			}
		}
		t.Fatalf("no %s observations: the integrator wire was not proxied", name)
	}

	dir := t.TempDir()
	gW := obs.NewGroup(1)
	_, ref, stW := runFlameCkpt(t, gW.Rank(0), dir, "", 1, params)
	proxied(gW)
	if stW.ErrTestFails == 0 {
		t.Fatal("the flame recorded no CVODE error-test failures; the totals check would be vacuous")
	}

	manifest := filepath.Join(dir, ckpt.ManifestFileName(1))
	gR := obs.NewGroup(1)
	_, got, st := runFlameCkpt(t, gR.Rank(0), t.TempDir(), manifest, 0, params)
	proxied(gR)
	assertSameField(t, "observed restore from step 1", ref, got)
	if st != stW {
		t.Fatalf("observed restore: CVODE totals %+v, uninterrupted %+v", st, stW)
	}
}

// runFlameSCMD runs the 4-rank flame with checkpointing wired and
// returns each rank's final field.
func runFlameSCMD(t *testing.T, world *mpi.World, dir, restore string, every int, params []Param) ([][]float64, error) {
	t.Helper()
	var mu sync.Mutex
	ranks := make([][]float64, world.Size())
	res := cca.RunSCMDOn(world, Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: params}); err != nil {
			return err
		}
		if err := WireCheckpointOpts(f, CheckpointOptions{Dir: dir, Restore: restore, Every: every}); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		snap, err := snapshotFieldOf(f, "phi")
		if err != nil {
			return err
		}
		mu.Lock()
		ranks[comm.Rank()] = snap
		mu.Unlock()
		return nil
	})
	return ranks, res.Err()
}

// TestFlameRestoreBitForBit4Ranks repeats the restore check under SCMD:
// 4 ranks checkpoint collectively (per-rank shards + rank-0 manifest),
// and a 4-rank restore must reproduce every rank's field exactly.
func TestFlameRestoreBitForBit4Ranks(t *testing.T) {
	params := flameCkptParams()
	dir := t.TempDir()

	ref, err := runFlameSCMD(t, mpi.NewWorld(4, mpi.CPlantModel), dir, "", 2, params)
	if err != nil {
		t.Fatal(err)
	}

	// every=2 over 4 steps saves after steps 1 and 3; restore mid-run.
	manifest := filepath.Join(dir, ckpt.ManifestFileName(1))
	got, err := runFlameSCMD(t, mpi.NewWorld(4, mpi.CPlantModel), t.TempDir(), manifest, 0, params)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ref {
		assertSameField(t, fmt.Sprintf("rank %d", r), ref[r], got[r])
	}
}

// TestShockRestoreBitForBit covers the second driver: the RK2 Euler
// run with CFL-controlled dt, periodic regrids, and the circulation
// time series, which a restore must reinstate exactly (the checkpoint
// carries it in Meta.Series).
func TestShockRestoreBitForBit(t *testing.T) {
	params := []Param{
		{"grace", "nx", "32"}, {"grace", "ny", "16"},
		{"grace", "lx", "2.0"}, {"grace", "ly", "1.0"},
		{"grace", "maxLevels", "2"},
		{"driver", "tEnd", "1.0"}, {"driver", "maxSteps", "6"},
		{"driver", "regridEvery", "2"},
	}
	dir := t.TempDir()

	run := func(dir, restore string, every int) (*components.ShockDriver, []float64) {
		f := cca.NewFramework(Repo(), nil)
		if err := AssembleRequest(f, RunRequest{Problem: "shock", Params: params}); err != nil {
			t.Fatal(err)
		}
		if err := WireCheckpointOpts(f, CheckpointOptions{Dir: dir, Restore: restore, Every: every}); err != nil {
			t.Fatal(err)
		}
		if err := f.Go("driver", "go"); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshotFieldOf(f, "U")
		if err != nil {
			t.Fatal(err)
		}
		comp, _ := f.Lookup("driver")
		return comp.(*components.ShockDriver), snap
	}

	drRef, ref := run(dir, "", 2) // saves after steps 1, 3, 5
	if drRef.Steps != 6 {
		t.Fatalf("reference ran %d steps, want 6", drRef.Steps)
	}

	drGot, got := run(t.TempDir(), filepath.Join(dir, ckpt.ManifestFileName(3)), 0)
	assertSameField(t, "shock restore from step 3", ref, got)
	if drGot.Steps != drRef.Steps || drGot.FinalTime != drRef.FinalTime {
		t.Fatalf("restored (steps=%d, t=%v) != reference (steps=%d, t=%v)",
			drGot.Steps, drGot.FinalTime, drRef.Steps, drRef.FinalTime)
	}
	if len(drGot.Circulations) != len(drRef.Circulations) {
		t.Fatalf("circulation series length %d != %d", len(drGot.Circulations), len(drRef.Circulations))
	}
	for i := range drRef.Circulations {
		if drGot.Circulations[i] != drRef.Circulations[i] || drGot.Times[i] != drRef.Times[i] {
			t.Fatalf("series entry %d differs: (%v,%v) vs (%v,%v)",
				i, drGot.Times[i], drGot.Circulations[i], drRef.Times[i], drRef.Circulations[i])
		}
	}
}

// TestFaultRecoveryBitForBit is the end-to-end resilience check: a
// 4-rank flame run is killed on rank 2 at step 2 by the injected fault;
// the supervisor detects the rank failure, rolls back to the last
// durable checkpoint, relaunches, and the recovered run's final state
// is bit-for-bit the fault-free run's.
func TestFaultRecoveryBitForBit(t *testing.T) {
	params := flameCkptParams()

	ref, err := runFlameSCMD(t, mpi.NewWorld(4, mpi.CPlantModel), t.TempDir(), "", 1, params)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var final [][]float64
	attempts := 0
	err = ckpt.Supervise(dir, 2, func(restore string) error {
		attempts++
		w := mpi.NewWorld(4, mpi.CPlantModel)
		if attempts == 1 {
			w.InjectFault(mpi.Fault{Rank: 2, Kind: mpi.FaultKill, AtStep: 2, AtSend: -1})
		}
		ranks, err := runFlameSCMD(t, w, dir, restore, 1, params)
		if err != nil {
			return err
		}
		final = ranks
		return nil
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one crash, one recovery)", attempts)
	}
	for r := range ref {
		assertSameField(t, fmt.Sprintf("recovered rank %d", r), ref[r], final[r])
	}
}
