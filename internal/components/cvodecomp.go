package components

import (
	"sync"

	"ccahydro/internal/cca"
	"ccahydro/internal/cvode"
)

// CvodeComponent is a thin wrapper around the BDF stiff integrator
// (paper Sec. 4.1). It pulls its right-hand side through the "rhs"
// uses port and exposes an ImplicitIntegratorPort. Tolerances come
// from the "rtol"/"atol" parameters.
type CvodeComponent struct {
	svc    cca.Services
	solver *cvode.Solver
	// rhs is fetched once; invocation is then one interface dispatch.
	// Guarded by rhsOnce: worker integrators resolve it lazily from
	// pool goroutines.
	rhs     RHSPort
	rhsOnce sync.Once
	dim     int
	rtol    float64
	atol    float64
	// accumulated stats across calls; guarded by statsMu because
	// worker integrators report from pool goroutines.
	statsMu sync.Mutex
	total   cvode.Stats
	// workers holds per-worker-slot integrator instances (see
	// WorkerIntegrator); rebuilt when the pool width changes.
	workers []*workerIntegrator
}

// SetServices implements cca.Component.
func (cc *CvodeComponent) SetServices(svc cca.Services) error {
	cc.svc = svc
	cc.rtol = svc.Parameters().GetFloat("rtol", 1e-8)
	cc.atol = svc.Parameters().GetFloat("atol", 1e-12)
	if err := svc.RegisterUsesPort("rhs", RHSPortType); err != nil {
		return err
	}
	return svc.AddProvidesPort(cc, "integrator", ImplicitIntegratorType)
}

// rhsPort fetches the connected RHS once and holds it — the CCA
// pattern: connecting ports moves an interface pointer, and a method
// invocation costs one dispatch, not a framework lookup.
func (cc *CvodeComponent) rhsPort() RHSPort {
	cc.rhsOnce.Do(func() {
		p, err := cc.svc.GetPort("rhs")
		if err != nil {
			panic(err)
		}
		cc.rhs = p.(RHSPort)
	})
	return cc.rhs
}

// ensureSolver (re)creates the solver when the RHS dimension changes.
func (cc *CvodeComponent) ensureSolver() {
	rhs := cc.rhsPort()
	dim := rhs.Dim()
	if cc.solver != nil && dim == cc.dim {
		return
	}
	cc.dim = dim
	f := func(t float64, y, ydot []float64) { cc.rhsPort().Eval(t, y, ydot) }
	cc.solver = cvode.New(dim, f, cvode.Options{
		RelTol: cc.rtol,
		AbsTol: cc.atol,
		Jac:    cc.jacFn(),
	})
}

// jacFn probes the wired RHS for the optional JacobianRHSPort
// capability. A nil return keeps cvode's finite-difference fallback;
// each call hands out a fresh evaluator so per-worker solvers never
// share Jacobian scratch.
func (cc *CvodeComponent) jacFn() cvode.Jac {
	if jp, ok := cc.rhsPort().(JacobianRHSPort); ok {
		return jp.JacFn()
	}
	return nil
}

// IntegrateTo implements ImplicitIntegratorPort: advance y in place
// from t0 to t1.
func (cc *CvodeComponent) IntegrateTo(t0, t1 float64, y []float64) (cvode.Stats, error) {
	cc.ensureSolver()
	cc.solver.Init(t0, y)
	if err := cc.solver.Integrate(t1); err != nil {
		return cc.solver.Stats(), err
	}
	copy(y, cc.solver.Y())
	st := cc.solver.Stats()
	cc.addStats(st)
	return st, nil
}

func (cc *CvodeComponent) addStats(st cvode.Stats) {
	cc.statsMu.Lock()
	cc.total.Steps += st.Steps
	cc.total.RHSEvals += st.RHSEvals
	cc.total.JacEvals += st.JacEvals
	cc.total.JacBuildsAnalytic += st.JacBuildsAnalytic
	cc.total.JacBuildsFD += st.JacBuildsFD
	cc.total.JacReuses += st.JacReuses
	cc.total.NewtonIters += st.NewtonIters
	cc.total.ErrTestFails += st.ErrTestFails
	cc.statsMu.Unlock()
}

// TotalStats reports work accumulated over all IntegrateTo calls,
// including those made through worker integrators.
func (cc *CvodeComponent) TotalStats() cvode.Stats {
	cc.statsMu.Lock()
	defer cc.statsMu.Unlock()
	return cc.total
}

// Solver-statistic counter names used in checkpoints.
const (
	counterCvodeSteps       = "cvode.steps"
	counterCvodeRHS         = "cvode.rhs_evals"
	counterCvodeJac         = "cvode.jac_evals"
	counterCvodeJacAnalytic = "cvode.jac_analytic"
	counterCvodeJacFD       = "cvode.jac_fd"
	counterCvodeJacReuses   = "cvode.jac_reuses"
	counterCvodeNewton      = "cvode.newton_iters"
	counterCvodeErrTestFail = "cvode.err_test_fails"
)

// Counters implements CounterSource: the cumulative solver statistics a
// checkpoint must carry so a restored run reports the same Table 4
// totals as an uninterrupted one.
func (cc *CvodeComponent) Counters() map[string]float64 {
	st := cc.TotalStats()
	return map[string]float64{
		counterCvodeSteps:       float64(st.Steps),
		counterCvodeRHS:         float64(st.RHSEvals),
		counterCvodeJac:         float64(st.JacEvals),
		counterCvodeJacAnalytic: float64(st.JacBuildsAnalytic),
		counterCvodeJacFD:       float64(st.JacBuildsFD),
		counterCvodeJacReuses:   float64(st.JacReuses),
		counterCvodeNewton:      float64(st.NewtonIters),
		counterCvodeErrTestFail: float64(st.ErrTestFails),
	}
}

// RestoreCounters implements CounterSource.
func (cc *CvodeComponent) RestoreCounters(m map[string]float64) {
	cc.statsMu.Lock()
	cc.total = cvode.Stats{
		Steps:             int(m[counterCvodeSteps]),
		RHSEvals:          int(m[counterCvodeRHS]),
		JacEvals:          int(m[counterCvodeJac]),
		JacBuildsAnalytic: int(m[counterCvodeJacAnalytic]),
		JacBuildsFD:       int(m[counterCvodeJacFD]),
		JacReuses:         int(m[counterCvodeJacReuses]),
		NewtonIters:       int(m[counterCvodeNewton]),
		ErrTestFails:      int(m[counterCvodeErrTestFail]),
	}
	cc.statsMu.Unlock()
}

// workerIntegrator is one worker slot's private solver. Each slot owns
// its own cvode.Solver, so cell integrations on different workers never
// share state; Init fully resets the solver, so results are identical
// to the shared-solver serial path.
type workerIntegrator struct {
	cc     *CvodeComponent
	solver *cvode.Solver
	dim    int
}

var _ ImplicitIntegratorPort = (*workerIntegrator)(nil)

func (wi *workerIntegrator) IntegrateTo(t0, t1 float64, y []float64) (cvode.Stats, error) {
	if wi.solver == nil || wi.dim != len(y) {
		wi.dim = len(y)
		rhs := wi.cc.rhsPort()
		wi.solver = cvode.New(wi.dim, func(t float64, y, ydot []float64) { rhs.Eval(t, y, ydot) },
			cvode.Options{RelTol: wi.cc.rtol, AbsTol: wi.cc.atol, Jac: wi.cc.jacFn()})
	}
	wi.solver.Init(t0, y)
	if err := wi.solver.Integrate(t1); err != nil {
		return wi.solver.Stats(), err
	}
	copy(y, wi.solver.Y())
	st := wi.solver.Stats()
	wi.cc.addStats(st)
	return st, nil
}

// WorkerIntegrator implements WorkerIntegratorPort: a private
// integrator per worker slot so per-cell chemistry can fan out across a
// pool. Call it serially (before launching the parallel loop);
// instances persist across calls with the same width.
func (cc *CvodeComponent) WorkerIntegrator(w, width int) ImplicitIntegratorPort {
	if len(cc.workers) != width {
		cc.workers = make([]*workerIntegrator, width)
	}
	if cc.workers[w] == nil {
		cc.workers[w] = &workerIntegrator{cc: cc}
	}
	return cc.workers[w]
}
