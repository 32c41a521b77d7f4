package core

import (
	"fmt"
	"runtime"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/exec"
)

// snapshotField flattens every interior cell of every level of a named
// field into one deterministic checkpoint vector.
func snapshotField(t *testing.T, f *cca.Framework, fieldName string) []float64 {
	t.Helper()
	comp, err := f.Lookup("grace")
	if err != nil {
		t.Fatal(err)
	}
	gc := comp.(*components.GrACEComponent)
	d := gc.Field(fieldName)
	if d == nil {
		t.Fatalf("field %q not declared", fieldName)
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
	return out
}

func restoreDefaultPool(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { exec.SetDefaultWidth(runtime.GOMAXPROCS(0)) })
}

// TestFlameParallelPoolMatchesSerial is the checkpoint-comparison test
// of the execution engine's determinism contract: the same flame run
// under a width-1 pool and a width-4 pool must produce bit-for-bit
// identical fields and diagnostics.
func TestFlameParallelPoolMatchesSerial(t *testing.T) {
	restoreDefaultPool(t)
	params := []Param{
		{"grace", "nx", "24"}, {"grace", "ny", "24"},
		{"grace", "maxLevels", "2"},
		{"driver", "steps", "2"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "1"},
	}

	exec.SetDefaultWidth(1)
	drS, fS, err := RunReactionDiffusion(nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	refField := snapshotField(t, fS, "phi")

	exec.SetDefaultWidth(4)
	drP, fP, err := RunReactionDiffusion(nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	gotField := snapshotField(t, fP, "phi")

	if drS.TMax != drP.TMax || drS.TMin != drP.TMin {
		t.Errorf("extrema differ: serial (%v, %v) vs parallel (%v, %v)",
			drS.TMax, drS.TMin, drP.TMax, drP.TMin)
	}
	if len(refField) != len(gotField) {
		t.Fatalf("checkpoint sizes differ: %d vs %d (hierarchies diverged)", len(refField), len(gotField))
	}
	for i := range refField {
		if refField[i] != gotField[i] {
			t.Fatalf("checkpoint cell %d differs: serial %v, parallel %v", i, refField[i], gotField[i])
		}
	}
}

// TestShockParallelPoolMatchesSerial repeats the checkpoint comparison
// for the shock-interface assembly (RK2 + flux sweeps + circulation).
func TestShockParallelPoolMatchesSerial(t *testing.T) {
	restoreDefaultPool(t)
	params := []Param{
		{"grace", "nx", "32"}, {"grace", "ny", "16"},
		{"grace", "maxLevels", "2"},
		{"driver", "tEnd", "0.05"}, {"driver", "maxSteps", "8"},
		{"driver", "regridEvery", "4"},
	}

	exec.SetDefaultWidth(1)
	drS, fS, err := RunShockInterface(nil, "GodunovFlux", params...)
	if err != nil {
		t.Fatal(err)
	}
	refField := snapshotField(t, fS, "U")

	exec.SetDefaultWidth(4)
	drP, fP, err := RunShockInterface(nil, "GodunovFlux", params...)
	if err != nil {
		t.Fatal(err)
	}
	gotField := snapshotField(t, fP, "U")

	if len(drS.Circulations) != len(drP.Circulations) {
		t.Fatalf("step counts differ: %d vs %d", len(drS.Circulations), len(drP.Circulations))
	}
	for i := range drS.Circulations {
		if drS.Circulations[i] != drP.Circulations[i] {
			t.Errorf("circulation %d differs: serial %v, parallel %v", i, drS.Circulations[i], drP.Circulations[i])
		}
	}
	if len(refField) != len(gotField) {
		t.Fatalf("checkpoint sizes differ: %d vs %d", len(refField), len(gotField))
	}
	for i := range refField {
		if refField[i] != gotField[i] {
			t.Fatalf("checkpoint cell %d differs: serial %v, parallel %v", i, refField[i], gotField[i])
		}
	}
}

// TestExecutionComponentWiring runs the flame with an explicit
// ExecutionComponent connected to every exec uses port — the
// CCA-faithful way to control intra-rank parallelism — and checks the
// result matches the default-pool run exactly.
func TestExecutionComponentWiring(t *testing.T) {
	restoreDefaultPool(t)
	params := []Param{
		{"grace", "nx", "24"}, {"grace", "ny", "24"},
		{"grace", "maxLevels", "1"},
		{"driver", "steps", "1"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "0"},
	}

	exec.SetDefaultWidth(1)
	_, fS, err := RunReactionDiffusion(nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	ref := snapshotField(t, fS, "phi")

	f := cca.NewFramework(Repo(), nil)
	if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: params}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetParameter("pool", "workers", "3"); err != nil {
		t.Fatal(err)
	}
	if err := f.Instantiate("ExecutionComponent", "pool"); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"driver", "rkc", "implicit", "maxdiff"} {
		if err := f.Connect(user, "exec", "pool", "exec"); err != nil {
			t.Fatalf("connect %s.exec: %v", user, err)
		}
	}
	if err := f.Go("driver", "go"); err != nil {
		t.Fatal(err)
	}
	got := snapshotField(t, f, "phi")

	if len(ref) != len(got) {
		t.Fatalf("checkpoint sizes differ: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("cell %d differs: default pool %v, ExecutionComponent %v", i, ref[i], got[i])
		}
	}

	comp, err := f.Lookup("pool")
	if err != nil {
		t.Fatal(err)
	}
	if w := comp.(components.ExecutionPort).Pool().Width(); w != 3 {
		t.Errorf("pool width = %d, want 3 (workers parameter)", w)
	}
}

// TestExecutionPortInArena checks the new port shows up in the textual
// arena view like any other CCA wiring.
func TestExecutionPortInArena(t *testing.T) {
	f := cca.NewFramework(Repo(), nil)
	if err := AssembleRequest(f, RunRequest{Problem: "flame"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Instantiate("ExecutionComponent", "pool"); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("driver", "exec", "pool", "exec"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range f.Connections() {
		if c.User == "driver" && c.UsesPort == "exec" && c.Provider == "pool" {
			found = true
			if c.PortType != components.ExecutionPortType {
				t.Errorf("port type = %q, want %q", c.PortType, components.ExecutionPortType)
			}
		}
	}
	if !found {
		t.Fatal(fmt.Sprintf("driver.exec -> pool.exec not in %v", f.Connections()))
	}
}
