// Package core assembles the paper's three applications from the
// component palette: the 0D ignition code (Table 1 / Fig 1), the 2D
// reaction–diffusion flame (Table 2 / Fig 2), and the 2D
// shock–interface interaction (Table 3 / Fig 5). Each application is a
// scenario file embedded from the repository's scenarios directory and
// built through scenario.Compiled.Build, like any other scenario.
package core

import (
	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/mpi"
)

// Repo returns the fully populated component repository.
func Repo() *cca.Repository { return components.NewRepository() }

// Param is one (instance, key, value) parameter setting.
type Param struct {
	Instance, Key, Value string
}

// RunIgnition0D runs the ignition built-in serially and returns its
// driver for result inspection.
func RunIgnition0D(params ...Param) (*components.IgnitionDriver, error) {
	dr, _, err := run[*components.IgnitionDriver](nil, RunRequest{Problem: "ignition", Params: params})
	return dr, err
}

// RunReactionDiffusion runs the flame built-in (comm may be nil) and
// returns the driver and framework.
func RunReactionDiffusion(comm *mpi.Comm, params ...Param) (*components.RDDriver, *cca.Framework, error) {
	return run[*components.RDDriver](comm, RunRequest{Problem: "flame", Params: params})
}

// RunShockInterface runs the shock built-in with fluxClass in its flux
// slot ("" keeps GodunovFlux) — the paper's component swap for strong
// shocks, no recompilation required.
func RunShockInterface(comm *mpi.Comm, fluxClass string, params ...Param) (*components.ShockDriver, *cca.Framework, error) {
	return run[*components.ShockDriver](comm, RunRequest{Problem: "shock", Flux: fluxClass, Params: params})
}

// run assembles req on a fresh framework, fires the driver's go port,
// and returns the driver.
func run[D cca.Component](comm *mpi.Comm, req RunRequest) (D, *cca.Framework, error) {
	var dr D
	f := cca.NewFramework(Repo(), comm)
	if err := AssembleRequest(f, req); err != nil {
		return dr, nil, err
	}
	if err := f.Go("driver", "go"); err != nil {
		return dr, nil, err
	}
	comp, err := f.Lookup("driver")
	if err != nil {
		return dr, nil, err
	}
	return comp.(D), f, nil
}
