// ShockInterface runs the paper's Sec. 4.3 experiment: a Mach 1.5
// shock rupturing an oblique Air/Freon interface (density ratio 3,
// 30 degrees from vertical) in a 2D shock tube with reflecting upper
// and lower walls, solved by a second-order Godunov method on a SAMR
// hierarchy — the Table 3 assembly.
//
// The -flux switch demonstrates the paper's headline reuse result:
// replacing the GodunovFlux component with EFMFlux (a more diffusive
// gas-kinetic scheme) to run strong shocks, with no other change:
//
//	go run ./examples/shockinterface                  # Mach 1.5, Godunov
//	go run ./examples/shockinterface -flux efm -mach 3.5
//	go run ./examples/shockinterface -arena           # Fig 5 wiring
package main

import (
	"flag"
	"fmt"
	"log"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
)

func main() {
	nx := flag.Int("nx", 96, "coarse cells along the tube")
	levels := flag.Int("levels", 2, "max AMR levels (paper: 3)")
	tEnd := flag.Float64("tEnd", 1.0, "end time (shock-crossing units)")
	mach := flag.Float64("mach", 1.5, "incident shock Mach number")
	fluxFlag := flag.String("flux", "godunov", "flux component: godunov or efm")
	arena := flag.Bool("arena", false, "print the component assembly (Fig 5) and exit")
	flag.Parse()

	fluxClass := "GodunovFlux"
	if *fluxFlag == "efm" {
		fluxClass = "EFMFlux"
	}
	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: fmt.Sprint(*nx)},
		{Instance: "grace", Key: "ny", Value: fmt.Sprint(*nx / 2)},
		{Instance: "grace", Key: "lx", Value: "2.0"},
		{Instance: "grace", Key: "ly", Value: "1.0"},
		{Instance: "grace", Key: "maxLevels", Value: fmt.Sprint(*levels)},
		{Instance: "gas", Key: "mach", Value: fmt.Sprint(*mach)},
		{Instance: "driver", Key: "tEnd", Value: fmt.Sprint(*tEnd)},
		{Instance: "driver", Key: "maxSteps", Value: "4000"},
		{Instance: "driver", Key: "regridEvery", Value: "5"},
	}

	if *arena {
		f := cca.NewFramework(core.Repo(), nil)
		if err := core.AssembleRequest(f, core.RunRequest{Problem: "shock", Flux: fluxClass, Params: params}); err != nil {
			log.Fatal(err)
		}
		fmt.Print(cca.Arena(f))
		return
	}

	dr, f, err := core.RunShockInterface(nil, fluxClass, params...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("shock-interface interaction: Mach %.2f, %s flux, %d levels\n\n", *mach, fluxClass, *levels)
	n := len(dr.Times)
	stride := n / 12
	if stride < 1 {
		stride = 1
	}
	fmt.Printf("%10s %14s\n", "t", "circulation")
	for i := 0; i < n; i += stride {
		fmt.Printf("%10.3f %14.4f\n", dr.Times[i], dr.Circulations[i])
	}
	fmt.Printf("%10.3f %14.4f\n", dr.Times[n-1], dr.Circulations[n-1])
	comp, _ := f.Lookup("grace")
	fmt.Printf("\n%s", comp.(*components.GrACEComponent).Hierarchy())
	fmt.Printf("steps: %d, final time: %.3f\n", dr.Steps, dr.FinalTime)
}
