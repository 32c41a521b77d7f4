package components

import "ccahydro/internal/cca"

// specs is the component palette: every class's contract, in the order
// RegisterAll registers them. It is the Go substitute for the
// shared-object components Ccaffeine would dlopen, and the scenario
// validator's static truth.
var specs = []*Spec{
	thermoChemistrySpec, dpdtSpec, problemModelerSpec, initializerSpec,
	cvodeSpec, statisticsSpec, ignitionDriverSpec, graceSpec,
	initialConditionSpec, drfmSpec, diffusionPhysicsSpec, maxDiffCoeffSpec,
	explicitIntegratorSpec, implicitIntegratorSpec, regridSpec, rdDriverSpec,
	conicalInterfaceSpec, kelvinHelmholtzSpec, richtmyerMeshkovSpec, statesSpec,
	godunovFluxSpec, efmFluxSpec, hllcFluxSpec, inviscidFluxSpec,
	characteristicsSpec, rk2Spec, boundaryConditionsSpec, gasPropertiesSpec,
	prolongRestrictSpec, shockDriverSpec, balancerSpec, executionSpec,
	checkpointSpec,
}

var specByClass = func() map[string]*Spec {
	m := make(map[string]*Spec, len(specs))
	for _, s := range specs {
		m[s.Class] = s
	}
	return m
}()

// Specs returns every class's spec in registration order. Callers must
// not modify the result.
func Specs() []*Spec { return specs }

// SpecFor returns the spec of a class name.
func SpecFor(class string) (*Spec, bool) {
	s, ok := specByClass[class]
	return s, ok
}

// RegisterAll adds every component class to a repository under the
// names the paper's assemblies use.
func RegisterAll(repo *cca.Repository) {
	for _, s := range specs {
		repo.Register(s.Class, s.New)
	}
}

// NewRepository returns a repository with every component registered.
func NewRepository() *cca.Repository {
	repo := cca.NewRepository()
	RegisterAll(repo)
	return repo
}
