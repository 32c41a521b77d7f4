// Flame2D runs the paper's Sec. 4.2 experiment: a 2D reaction–diffusion
// flame (three hot spots in stoichiometric H2–air) on a SAMR hierarchy,
// assembled from the Table 2 components. Operator splitting advances
// stiff chemistry implicitly (CvodeComponent through the
// ImplicitIntegrator adaptor) and diffusion explicitly (RKC through
// DiffusionPhysics + DRFMComponent), with ErrorEstAndRegrid rebuilding
// the patch hierarchy around the igniting kernels.
//
//	go run ./examples/flame2d [-nx 32] [-steps 6] [-np 4] [-arena]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
)

func main() {
	nx := flag.Int("nx", 32, "coarse mesh cells per side (paper: 100)")
	steps := flag.Int("steps", 6, "macro time steps")
	dt := flag.Float64("dt", 2e-7, "macro step (s)")
	levels := flag.Int("levels", 2, "max AMR levels")
	np := flag.Int("np", 1, "SCMD ranks (in-process cohort)")
	arena := flag.Bool("arena", false, "print the component assembly (Fig 2) and exit")
	flag.Parse()

	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: fmt.Sprint(*nx)},
		{Instance: "grace", Key: "ny", Value: fmt.Sprint(*nx)},
		{Instance: "grace", Key: "maxLevels", Value: fmt.Sprint(*levels)},
		{Instance: "driver", Key: "steps", Value: fmt.Sprint(*steps)},
		{Instance: "driver", Key: "dt", Value: fmt.Sprint(*dt)},
		{Instance: "driver", Key: "regridEvery", Value: "2"},
	}

	if *arena {
		f := cca.NewFramework(core.Repo(), nil)
		if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params}); err != nil {
			log.Fatal(err)
		}
		fmt.Print(cca.Arena(f))
		return
	}

	if *np == 1 {
		dr, f, err := core.RunReactionDiffusion(nil, params...)
		if err != nil {
			log.Fatal(err)
		}
		report(dr, f)
		return
	}

	var mu sync.Mutex
	var rank0 *components.RDDriver
	var rank0f *cca.Framework
	res := cca.RunSCMD(*np, mpi.CPlantModel, core.Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params}); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		if comm.Rank() == 0 {
			comp, _ := f.Lookup("driver")
			mu.Lock()
			rank0 = comp.(*components.RDDriver)
			rank0f = f
			mu.Unlock()
		}
		return nil
	})
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	report(rank0, rank0f)
	fmt.Printf("SCMD cohort: %d ranks, simulated run time %.4f s\n", *np, res.MaxVirtualTime())
}

func report(dr *components.RDDriver, f *cca.Framework) {
	fmt.Printf("2D reaction-diffusion flame (10 mm square, 3 hot spots)\n\n")
	for i, sec := range dr.StepSeconds {
		fmt.Printf("step %2d: %8.3fs wall, %7d cells in hierarchy\n", i+1, sec, dr.CellsPerStep[i])
	}
	comp, _ := f.Lookup("grace")
	fmt.Printf("\n%s", comp.(*components.GrACEComponent).Hierarchy())
	fmt.Printf("temperature range on this rank: %.1f .. %.1f K\n", dr.TMin, dr.TMax)
}
