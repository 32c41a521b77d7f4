// Ignition0D runs the paper's Sec. 4.1 experiment: constant-volume
// autoignition of a stoichiometric H2–air mixture at 1000 K and 1 atm,
// assembled from the Table 1 components (ThermoChemistry,
// CvodeComponent, problemModeler, dPdt, Initializer) and integrated to
// 1 ms.
//
//	go run ./examples/ignition0d [-T0 1000] [-tEnd 1e-3] [-arena]
package main

import (
	"flag"
	"fmt"
	"log"

	"ccahydro/internal/cca"
	"ccahydro/internal/core"
)

func main() {
	t0 := flag.Float64("T0", 1000, "initial temperature (K)")
	tEnd := flag.Float64("tEnd", 1e-3, "integration horizon (s)")
	arena := flag.Bool("arena", false, "print the component assembly (the paper's Fig 1 GUI view)")
	flag.Parse()

	if *arena {
		f := cca.NewFramework(core.Repo(), nil)
		if err := core.AssembleRequest(f, core.RunRequest{Problem: "ignition"}); err != nil {
			log.Fatal(err)
		}
		fmt.Print(cca.Arena(f))
		return
	}

	dr, err := core.RunIgnition0D(
		core.Param{Instance: "init", Key: "T0", Value: fmt.Sprint(*t0)},
		core.Param{Instance: "driver", Key: "tEnd", Value: fmt.Sprint(*tEnd)},
		core.Param{Instance: "driver", Key: "nOut", Value: "25"},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("0D ignition: stoichiometric H2-air, T0=%.0f K, P0=1 atm (rigid vessel)\n\n", *t0)
	fmt.Printf("%12s %10s %12s\n", "t (s)", "T (K)", "P (Pa)")
	for i := range dr.Times {
		fmt.Printf("%12.4e %10.1f %12.0f\n", dr.Times[i], dr.Temps[i], dr.Pressures[i])
	}
	fmt.Printf("\nignition delay (peak dT/dt): %.3e s\n", dr.IgnitionDelay)
	fmt.Printf("final state: T = %.1f K, P = %.2f atm\n",
		dr.Temps[len(dr.Temps)-1], dr.Pressures[len(dr.Pressures)-1]/101325)
}
