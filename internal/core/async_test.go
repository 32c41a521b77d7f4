package core

import (
	"sync"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/mpi"
)

// The asynchronous coalesced exchange promises bit-for-bit equality
// with the serial path: interior cells are computed while halo messages
// fly, boundary strips after Finish, and the split must be invisible in
// the checkpoint. Patch decomposition differs with rank count, so the
// comparison is keyed per cell (level, comp, i, j) rather than by flat
// patch order, with a coverage count to catch hierarchy divergence.

type cellKey struct{ level, comp, i, j int }

// snapshotCellMap flattens every interior cell of every level into a
// map keyed by global cell index.
func snapshotCellMap(t *testing.T, f *cca.Framework, fieldName string) map[cellKey]float64 {
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
	return out
}

// compareSCMDToSerial runs the assembly serially and on 4 virtual
// ranks, and demands identical per-cell checkpoints with full coverage.
func compareSCMDToSerial(t *testing.T, label string,
	runSerial func() (*cca.Framework, error),
	runRank func(f *cca.Framework, comm *mpi.Comm) error, fieldName string) {
	t.Helper()
	fS, err := runSerial()
	if err != nil {
		t.Fatal(err)
	}
	serial := snapshotCellMap(t, fS, fieldName)

	var mu sync.Mutex
	covered := 0
	res := cca.RunSCMD(4, mpi.CPlantModel, Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := runRank(f, comm); err != nil {
			return err
		}
		par := snapshotCellMap(t, f, fieldName)
		mu.Lock()
		defer mu.Unlock()
		covered += len(par)
		for k, got := range par {
			want, ok := serial[k]
			if !ok {
				t.Errorf("%s: rank %d owns cell %+v absent from the serial hierarchy", label, comm.Rank(), k)
				return nil
			}
			if got != want {
				t.Errorf("%s: cell %+v differs: serial %v, 4-rank async %v", label, k, want, got)
				return nil
			}
		}
		return nil
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if covered != len(serial) {
		t.Errorf("%s: ranks cover %d cells, serial hierarchy has %d (decomposition diverged)",
			label, covered, len(serial))
	}
}

// TestFlameAsyncExchangeMatchesSerial checkpoints the flame assembly
// (RKC + chemistry, two levels, regrid every step so the communication
// schedule is rebuilt mid-run) against its 4-rank overlapped execution.
func TestFlameAsyncExchangeMatchesSerial(t *testing.T) {
	params := []Param{
		{"grace", "nx", "24"}, {"grace", "ny", "24"},
		{"grace", "maxLevels", "2"},
		{"driver", "steps", "2"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "1"},
	}
	compareSCMDToSerial(t, "flame",
		func() (*cca.Framework, error) {
			_, f, err := RunReactionDiffusion(nil, params...)
			return f, err
		},
		func(f *cca.Framework, comm *mpi.Comm) error {
			if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: params}); err != nil {
				return err
			}
			return f.Go("driver", "go")
		},
		"phi")
}

// TestShockAsyncExchangeMatchesSerial repeats the per-cell comparison
// for the shock-interface assembly (RK2 Godunov sweeps, regrids).
func TestShockAsyncExchangeMatchesSerial(t *testing.T) {
	params := []Param{
		{"grace", "nx", "32"}, {"grace", "ny", "16"},
		{"grace", "lx", "2.0"}, {"grace", "ly", "1.0"},
		{"grace", "maxLevels", "2"},
		{"driver", "tEnd", "0.05"}, {"driver", "maxSteps", "8"},
		{"driver", "regridEvery", "4"},
	}
	compareSCMDToSerial(t, "shock",
		func() (*cca.Framework, error) {
			_, f, err := RunShockInterface(nil, "GodunovFlux", params...)
			return f, err
		},
		func(f *cca.Framework, comm *mpi.Comm) error {
			if err := AssembleRequest(f, RunRequest{Problem: "shock", Params: params}); err != nil {
				return err
			}
			return f.Go("driver", "go")
		},
		"U")
}
