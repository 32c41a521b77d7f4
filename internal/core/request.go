package core

import (
	"fmt"
	"sync"

	"ccahydro/internal/cca"
	"ccahydro/internal/scenario"
	"ccahydro/scenarios"
)

// RunRequest is the declarative form of "which assembly, with which
// knobs": Problem names one of the paper's three applications, Flux
// swaps the class of its "flux" instance (the shock problem's Riemann
// solver), and Params are instance parameters applied over the
// scenario's own before instantiation.
type RunRequest struct {
	Problem string // "ignition", "flame", or "shock"
	Flux    string // class for the "flux" instance; "" keeps the scenario's
	Params  []Param
}

// builtins maps each problem to its embedded scenario file, compiled on
// first use and shared from then on.
var builtins = map[string]func() (*scenario.Compiled, error){
	"ignition": embedded("ignition0d.scn"),
	"flame":    embedded("flame2d.scn"),
	"shock":    embedded("shockinterface.scn"),
}

func embedded(name string) func() (*scenario.Compiled, error) {
	return sync.OnceValues(func() (*scenario.Compiled, error) {
		src, err := scenarios.Files.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return scenario.Compile(name, src)
	})
}

// Builtin returns the compiled scenario of a built-in problem with
// fluxClass in its "flux" slot ("" keeps the file's class). The swap is
// checked against the class schema, so a class that does not fit the
// slot is an error. Without a swap all callers share one value: clone
// it before changing it.
func Builtin(problem, fluxClass string) (*scenario.Compiled, error) {
	load, ok := builtins[problem]
	if !ok {
		return nil, fmt.Errorf("core: unknown problem %q (want flame, ignition, or shock)", problem)
	}
	c, err := load()
	if err != nil {
		return nil, err
	}
	if fluxClass == "" || fluxClass == c.ClassOf("flux") {
		return c, nil
	}
	return c.SwapClass("flux", fluxClass)
}

// AssembleRequest builds the requested built-in on f. It does not fire
// the go port, so callers can wire checkpointing or telemetry onto the
// finished assembly first; instance names are the scenario file's
// ("driver", "stats", "grace", ...), so callers can Lookup results
// afterwards.
func AssembleRequest(f *cca.Framework, req RunRequest) error {
	c, err := Builtin(req.Problem, req.Flux)
	if err != nil {
		return err
	}
	overrides := make([]scenario.Param, len(req.Params))
	for i, p := range req.Params {
		overrides[i] = scenario.Param(p)
	}
	return c.Build(f, overrides...)
}
