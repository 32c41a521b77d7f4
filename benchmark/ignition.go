package main

import (
	"fmt"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/components"
	"ccahydro/internal/cvode"
	"ccahydro/internal/obs"
)

// The paper's Table 4 protocol: N identical H-seeded h2air-lite cells
// integrated from T0 = 1000 K over a fixed horizon, once through the
// ThermoChemistry -> DPDt -> ProblemModeler -> CvodeComponent assembly
// (every RHS evaluation crosses CCA ports) and once as a plain library
// loop with concrete calls. Same engine, same tolerances; only the
// dispatch differs.
const (
	ignT0   = 1000.0
	ignTEnd = 2e-5
	ignRTol = 1e-6
	ignATol = 1e-10
)

func ignitionY0(mech *chem.Mechanism) []float64 {
	// The 5-reaction mechanism has no initiation step: without the H
	// seed the mixture is frozen and the integrator does no work.
	Y := mech.StoichiometricH2Air()
	Y[mech.SpeciesIndex("H")] = 1e-6
	chem.NormalizeY(Y)
	n := mech.NumSpecies()
	y0 := make([]float64, n+2)
	y0[0] = ignT0
	copy(y0[1:1+n], Y)
	y0[1+n] = chem.PAtm
	return y0
}

type ignitionResult struct {
	seconds  float64 // the cell loop alone
	assemble float64
	finalT   float64
	stats    cvode.Stats // summed over cells
}

// componentCells assembles a fresh framework and integrates cells
// through its ports.
func componentCells(cells int, o *obs.Obs) (*ignitionResult, error) {
	start := time.Now()
	f := cca.NewFramework(repo(), nil)
	if o != nil {
		f.SetObservability(o)
	}
	for _, p := range [][3]string{
		{"chem", "mech", "h2air-lite"},
		{"cvode", "rtol", fmt.Sprint(ignRTol)},
		{"cvode", "atol", fmt.Sprint(ignATol)},
	} {
		if err := f.SetParameter(p[0], p[1], p[2]); err != nil {
			return nil, err
		}
	}
	for _, s := range [][2]string{
		{"ThermoChemistry", "chem"}, {"DPDt", "dpdt"}, {"ProblemModeler", "model"}, {"CvodeComponent", "cvode"},
	} {
		if err := f.Instantiate(s[0], s[1]); err != nil {
			return nil, err
		}
	}
	for _, w := range [][4]string{
		{"dpdt", "chemistry", "chem", "chemistry"},
		{"model", "chemistry", "chem", "chemistry"},
		{"model", "dpdt", "dpdt", "dpdt"},
		{"cvode", "rhs", "model", "rhs"},
	} {
		if err := f.Connect(w[0], w[1], w[2], w[3]); err != nil {
			return nil, err
		}
	}
	comp, err := f.Lookup("cvode")
	if err != nil {
		return nil, err
	}
	var integ components.ImplicitIntegratorPort = comp.(*components.CvodeComponent)
	comp, err = f.Lookup("chem")
	if err != nil {
		return nil, err
	}
	y0 := ignitionY0(comp.(*components.ThermoChemistry).Mechanism())
	y := make([]float64, len(y0))
	res := &ignitionResult{assemble: time.Since(start).Seconds()}

	loop := time.Now()
	for c := 0; c < cells; c++ {
		copy(y, y0)
		st, err := integ.IntegrateTo(0, ignTEnd, y)
		if err != nil {
			return nil, fmt.Errorf("component cell %d: %w", c, err)
		}
		addStats(&res.stats, st)
	}
	res.seconds = time.Since(loop).Seconds()
	res.finalT = y[0]
	return res, nil
}

// directCells is the library code: cvode.New + the generated kernel +
// its analytic rigid-vessel Jacobian, no ports.
func directCells(cells int) (*ignitionResult, error) {
	mech := chem.H2AirLite()
	kern := chem.KernelFor(mech.Name)
	if kern == nil {
		return nil, fmt.Errorf("no generated kernel registered for %s", mech.Name)
	}
	n := mech.NumSpecies()
	rhs := func(_ float64, y, ydot []float64) {
		T := y[0]
		if T < 200 {
			T = 200
		}
		Y := y[1 : 1+n]
		rho := mech.Density(y[1+n], T, Y)
		ydot[0] = kern.ConstVolumeSource(T, rho, Y, ydot[1:1+n])
		ydot[1+n] = mech.DPDt(rho, T, ydot[0], Y, ydot[1:1+n])
	}
	solver := cvode.New(n+2, rhs, cvode.Options{RelTol: ignRTol, AbsTol: ignATol, Jac: chem.RigidVesselJac(kern, mech)})
	y0 := ignitionY0(mech)
	res := &ignitionResult{}

	loop := time.Now()
	for c := 0; c < cells; c++ {
		solver.Init(0, y0)
		if err := solver.Integrate(ignTEnd); err != nil {
			return nil, fmt.Errorf("direct cell %d: %w", c, err)
		}
		addStats(&res.stats, solver.Stats())
	}
	res.seconds = time.Since(loop).Seconds()
	res.finalT = solver.Y()[0]
	return res, nil
}

func addStats(total *cvode.Stats, st cvode.Stats) {
	total.Steps += st.Steps
	total.RHSEvals += st.RHSEvals
	total.JacEvals += st.JacEvals
	total.NewtonIters += st.NewtonIters
	total.ErrTestFails += st.ErrTestFails
}

func (r *ignitionResult) checks(cells int) checks {
	c := newChecks()
	c.Floats["final_T"] = []float64{r.finalT}
	c.Ints["steps_per_cell"] = []int64{int64(r.stats.Steps / cells)}
	c.Ints["rhs_evals_per_cell"] = []int64{int64(r.stats.RHSEvals / cells)}
	return c
}
