// Package bench implements the experiment harness that regenerates
// every table and figure of the paper's evaluation: the Table 4
// single-processor overhead study, the Table 5 / Fig 8 weak-scaling and
// Fig 9 strong-scaling runs on the simulated cluster, and the physics
// figures (Figs 3, 4, 6, 7).
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/components"
	"ccahydro/internal/cvode"
)

// Table4Row is one line of the paper's Table 4.
type Table4Row struct {
	DtFactor  int     // the paper's "Δt" column (1 or 10)
	NCells    int     // identical cells integrated
	NFE       int     // RHS evaluations per cell (measured)
	Component float64 // component-assembled code seconds
	CCode     float64 // direct-call code seconds
	PctDiff   float64 // 100*(Component-CCode)/CCode
}

// table4InitialY builds the Table 4 mixture: stoichiometric H2-air
// seeded with a trace of H atoms (the 5-reaction mechanism has no
// initiation step, so an unseeded mixture is frozen and the integrator
// does no work; the paper's cells clearly reacted, with 150-424 RHS
// evaluations each).
func table4InitialY(mech *chem.Mechanism) []float64 {
	Y := mech.StoichiometricH2Air()
	Y[mech.SpeciesIndex("H")] = 1e-6
	chem.NormalizeY(Y)
	return Y
}

// Table4Config tunes the overhead study.
type Table4Config struct {
	// BaseTEnd is the integration horizon for DtFactor=1 (seconds of
	// simulated time; the paper's dimensionless Δt=1).
	BaseTEnd float64
	// Cells lists the cell counts (paper: 1000, 5000, 10000).
	Cells []int
	// DtFactors lists the horizon multipliers (paper: 1, 10).
	DtFactors []int
	// T0, P0 are the initial state.
	T0, P0 float64
}

// DefaultTable4Config mirrors the paper's setup: the light 8-species,
// 5-reaction mechanism, cell counts 1000/5000/10000, horizons 1x/10x.
var DefaultTable4Config = Table4Config{
	BaseTEnd:  2e-5,
	Cells:     []int{1000, 5000, 10000},
	DtFactors: []int{1, 10},
	T0:        1000,
	P0:        chem.PAtm,
}

// componentCellIntegrator assembles the Table 4 component code: the
// RHS is reached through CCA ports (interface-method dispatch, the Go
// analogue of the virtual call the paper measures).
type componentCellIntegrator struct {
	f     *cca.Framework
	integ components.ImplicitIntegratorPort
	nsp   int
}

func newComponentCellIntegrator() (*componentCellIntegrator, error) {
	repo := components.NewRepository()
	f := cca.NewFramework(repo, nil)
	if err := f.SetParameter("chem", "mech", "h2air-lite"); err != nil {
		return nil, err
	}
	if err := f.SetParameter("cvode", "rtol", "1e-6"); err != nil {
		return nil, err
	}
	if err := f.SetParameter("cvode", "atol", "1e-10"); err != nil {
		return nil, err
	}
	steps := [][4]string{
		{"ThermoChemistry", "chem", "", ""},
		{"DPDt", "dpdt", "", ""},
		{"ProblemModeler", "model", "", ""},
		{"CvodeComponent", "cvode", "", ""},
	}
	for _, s := range steps {
		if err := f.Instantiate(s[0], s[1]); err != nil {
			return nil, err
		}
	}
	wires := [][4]string{
		{"dpdt", "chemistry", "chem", "chemistry"},
		{"model", "chemistry", "chem", "chemistry"},
		{"model", "dpdt", "dpdt", "dpdt"},
		{"cvode", "rhs", "model", "rhs"},
	}
	for _, w := range wires {
		if err := f.Connect(w[0], w[1], w[2], w[3]); err != nil {
			return nil, err
		}
	}
	comp, err := f.Lookup("cvode")
	if err != nil {
		return nil, err
	}
	cc := comp.(*components.CvodeComponent)
	chemComp, err := f.Lookup("chem")
	if err != nil {
		return nil, err
	}
	return &componentCellIntegrator{
		f:     f,
		integ: cc,
		nsp:   chemComp.(*components.ThermoChemistry).Mechanism().NumSpecies(),
	}, nil
}

// run integrates nCells identical cells to tEnd and returns (seconds,
// RHS evals per cell).
func (ci *componentCellIntegrator) run(nCells int, tEnd, T0, P0 float64) (float64, int, error) {
	comp, _ := ci.f.Lookup("chem")
	mech := comp.(*components.ThermoChemistry).Mechanism()
	y0 := make([]float64, ci.nsp+2)
	y0[0] = T0
	copy(y0[1:1+ci.nsp], table4InitialY(mech))
	y0[1+ci.nsp] = P0
	y := make([]float64, len(y0))

	cvodeComp, _ := ci.f.Lookup("cvode")
	before := cvodeComp.(*components.CvodeComponent).TotalStats().RHSEvals
	start := time.Now()
	for c := 0; c < nCells; c++ {
		copy(y, y0)
		if _, err := ci.integ.IntegrateTo(0, tEnd, y); err != nil {
			return 0, 0, fmt.Errorf("component cell %d: %w", c, err)
		}
	}
	elapsed := time.Since(start).Seconds()
	after := cvodeComp.(*components.CvodeComponent).TotalStats().RHSEvals
	return elapsed, (after - before) / nCells, nil
}

// directCellIntegrator is the paper's "C-code": the same algorithm with
// the integrator used as a plain library — concrete calls, no ports.
// It must stay algorithm-identical to the componentized side, so it
// uses the same engine the components resolve: the generated kernel
// with its analytic Jacobian. Only the dispatch differs.
type directCellIntegrator struct {
	mech   *chem.Mechanism
	kern   chem.Kernel
	solver *cvode.Solver
	nfe    int
}

func newDirectCellIntegrator() *directCellIntegrator {
	di := &directCellIntegrator{
		mech: chem.H2AirLite(),
	}
	di.kern = chem.KernelFor(di.mech.Name)
	n := di.mech.NumSpecies()
	rhs := func(_ float64, y, ydot []float64) {
		di.nfe++
		T := y[0]
		if T < 200 {
			T = 200
		}
		Y := y[1 : 1+n]
		P := y[1+n]
		rho := di.mech.Density(P, T, Y)
		ydot[0] = di.kern.ConstVolumeSource(T, rho, Y, ydot[1:1+n])
		ydot[1+n] = di.mech.DPDt(rho, T, ydot[0], Y, ydot[1:1+n])
	}
	di.solver = cvode.New(n+2, rhs, cvode.Options{RelTol: 1e-6, AbsTol: 1e-10, Jac: chem.RigidVesselJac(di.kern, di.mech)})
	return di
}

func (di *directCellIntegrator) run(nCells int, tEnd, T0, P0 float64) (float64, int, error) {
	n := di.mech.NumSpecies()
	y0 := make([]float64, n+2)
	y0[0] = T0
	copy(y0[1:1+n], table4InitialY(di.mech))
	y0[1+n] = P0

	before := di.nfe
	start := time.Now()
	for c := 0; c < nCells; c++ {
		di.solver.Init(0, y0)
		if err := di.solver.Integrate(tEnd); err != nil {
			return 0, 0, fmt.Errorf("direct cell %d: %w", c, err)
		}
	}
	elapsed := time.Since(start).Seconds()
	return elapsed, (di.nfe - before) / nCells, nil
}

// RunTable4 executes the single-processor overhead study and returns
// the rows in the paper's order. The component and direct loops must do
// identical solver work — equal RHS evaluations per cell — or the
// timing comparison is meaningless and RunTable4 fails.
func RunTable4(cfg Table4Config) ([]Table4Row, error) {
	if cfg.BaseTEnd == 0 {
		cfg = DefaultTable4Config
	}
	ci, err := newComponentCellIntegrator()
	if err != nil {
		return nil, err
	}
	di := newDirectCellIntegrator()

	// Warm up both paths so one-time costs don't skew the first row.
	if _, _, err := ci.run(50, cfg.BaseTEnd, cfg.T0, cfg.P0); err != nil {
		return nil, err
	}
	if _, _, err := di.run(50, cfg.BaseTEnd, cfg.T0, cfg.P0); err != nil {
		return nil, err
	}

	var rows []Table4Row
	for _, df := range cfg.DtFactors {
		tEnd := cfg.BaseTEnd * float64(df)
		for _, nc := range cfg.Cells {
			// Best-of-2, interleaved, so host noise hits both paths alike.
			compT, directT := math.Inf(1), math.Inf(1)
			var nfe int
			for rep := 0; rep < 2; rep++ {
				ct, n1, err := ci.run(nc, tEnd, cfg.T0, cfg.P0)
				if err != nil {
					return nil, err
				}
				dt, n2, err := di.run(nc, tEnd, cfg.T0, cfg.P0)
				if err != nil {
					return nil, err
				}
				if n1 != n2 {
					return nil, fmt.Errorf("table4: component loop did %d RHS evals per cell, direct loop %d", n1, n2)
				}
				compT = math.Min(compT, ct)
				directT = math.Min(directT, dt)
				nfe = n1
			}
			rows = append(rows, Table4Row{
				DtFactor:  df,
				NCells:    nc,
				NFE:       nfe,
				Component: compT,
				CCode:     directT,
				PctDiff:   100 * (compT - directT) / directT,
			})
		}
	}
	return rows, nil
}

// PrintTable4 renders rows like the paper's Table 4.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: single-processor timings, component vs direct-call code\n")
	fmt.Fprintf(w, "(light 8-species/5-reaction mechanism; identical cells)\n\n")
	fmt.Fprintf(w, "%4s %8s %6s %12s %12s %9s\n", "Δt", "Ncells", "NFE", "Comp.(s)", "C-code(s)", "% diff.")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %8d %6d %12.4f %12.4f %9.2f\n",
			r.DtFactor, r.NCells, r.NFE, r.Component, r.CCode, r.PctDiff)
	}
	fmt.Fprintf(w, "\nPaper reference: |%% diff.| <= 1.54 with no trend (overhead within noise).\n")
}
