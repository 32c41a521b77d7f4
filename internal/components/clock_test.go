package components_test

import (
	"errors"
	"math"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
)

// TestFlameClockChargesWorkCounts: on one rank no message costs
// anything, so a flame's virtual time is the cost table applied to the
// work the run reports — the CVODE right-hand sides and Jacobians the
// integrator counted, and the cells the RKC stages evaluated, tallied
// on the patch-RHS wire. The run refines to two levels, so every
// level's stages are charged.
func TestFlameClockChargesWorkCounts(t *testing.T) {
	repo := core.Repo()
	tally := &regionTally{}
	repo.Register("RegionTally", func() cca.Component { return tally })
	var vt float64
	var counters map[string]float64
	var err error
	mpi.Run(1, mpi.CPlantModel, func(comm *mpi.Comm) {
		err = func() error {
			f := cca.NewFramework(repo, comm)
			if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params(
				"grace", "nx", "24", "grace", "ny", "24", "grace", "maxLevels", "2",
				"driver", "steps", "2", "driver", "regridEvery", "1",
			)}); err != nil {
				return err
			}
			if err := errors.Join(
				f.Instantiate("RegionTally", "tally"),
				f.Disconnect("rkc", "patchRHS"),
				f.Connect("rkc", "patchRHS", "tally", "patchRHS"),
				f.Connect("tally", "inner", "diffusion", "patchRHS"),
				f.Go("driver", "go"),
			); err != nil {
				return err
			}
			comp, _ := f.Lookup("implicit")
			counters = comp.(*components.ImplicitIntegrator).Counters()
			vt = comm.VirtualTime()
			return nil
		}()
	})
	must(t, err)
	rhs, jac := counters["cvode.rhs_evals"], counters["cvode.jac_evals"]
	if rhs == 0 || jac == 0 || tally.cells == 0 {
		t.Fatalf("no work counted: %v RHS, %v Jacobians, %d stage cells", rhs, jac, tally.cells)
	}
	want := rhs*components.ChemRHSCost + jac*components.ChemJacCost +
		float64(tally.cells)*components.RKCCellCost
	if math.Abs(vt-want) > 1e-12*want {
		t.Errorf("virtual time %.15g s, want %.15g s from %v RHS, %v Jacobians, %d stage cells",
			vt, want, rhs, jac, tally.cells)
	}
}
