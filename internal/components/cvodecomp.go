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
	svc cca.Services
	// rhs is fetched once; invocation is then one interface dispatch.
	// Guarded by rhsOnce: worker integrators resolve it lazily from
	// pool goroutines.
	rhs     RHSPort
	rhsOnce sync.Once
	rtol    float64
	atol    float64
	// accumulated stats across calls; guarded by statsMu because
	// worker integrators report from pool goroutines.
	statsMu sync.Mutex
	total   cvode.Stats
	// own serves the component's own IntegrateTo; workers holds the
	// per-worker-slot instances (see WorkerIntegrator), rebuilt when
	// the pool width changes.
	own     workerIntegrator
	workers []*workerIntegrator
}

var cvodeSpec = &Spec{
	Class: "CvodeComponent", New: func() cca.Component { return &CvodeComponent{} },
	Params:   map[string]Param{"rtol": fparam("1e-8", 0, 1), "atol": fparam("1e-12", 0, 1)},
	Uses:     []PortDecl{need("rhs", RHSPortType)},
	Provides: []PortDecl{prov("integrator", ImplicitIntegratorType)},
}

// SetServices implements cca.Component.
func (cc *CvodeComponent) SetServices(svc cca.Services) error {
	cc.svc = svc
	cc.own.CvodeComponent = cc
	cc.rtol = cvodeSpec.Float(svc.Parameters(), "rtol")
	cc.atol = cvodeSpec.Float(svc.Parameters(), "atol")
	return cvodeSpec.register(svc, cc)
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

// IntegrateTo implements ImplicitIntegratorPort: advance y in place
// from t0 to t1.
func (cc *CvodeComponent) IntegrateTo(t0, t1 float64, y []float64) (cvode.Stats, error) {
	return cc.own.IntegrateTo(t0, t1, y)
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

// Counters implements ImplicitIntegratorPort.
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

// RestoreCounters implements ImplicitIntegratorPort.
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

// workerIntegrator is one private solver: a worker slot's, or the
// component's own. Each owns its cvode.Solver, so cell integrations on
// different workers never share state; Init fully resets the solver,
// so results are identical whichever instance integrates a cell. The
// solver is (re)built when the state dimension changes, with the
// wired RHS's analytic Jacobian when it offers one. The embedded
// component supplies the rest of the port (statistics, worker slots),
// and every instance reports its work into the component's totals.
type workerIntegrator struct {
	*CvodeComponent
	solver *cvode.Solver
	dim    int
}

var _ ImplicitIntegratorPort = (*workerIntegrator)(nil)

func (wi *workerIntegrator) IntegrateTo(t0, t1 float64, y []float64) (cvode.Stats, error) {
	if wi.solver == nil || wi.dim != len(y) {
		wi.dim = len(y)
		rhs := wi.rhsPort()
		wi.solver = cvode.New(wi.dim, rhs.Eval,
			cvode.Options{RelTol: wi.rtol, AbsTol: wi.atol, Jac: rhs.JacFn()})
	}
	wi.solver.Init(t0, y)
	if err := wi.solver.Integrate(t1); err != nil {
		return wi.solver.Stats(), err
	}
	copy(y, wi.solver.Y())
	st := wi.solver.Stats()
	wi.addStats(st)
	return st, nil
}

// WorkerIntegrator implements ImplicitIntegratorPort.
func (cc *CvodeComponent) WorkerIntegrator(w, width int) ImplicitIntegratorPort {
	if len(cc.workers) != width {
		cc.workers = make([]*workerIntegrator, width)
	}
	if cc.workers[w] == nil {
		cc.workers[w] = &workerIntegrator{CvodeComponent: cc}
	}
	return cc.workers[w]
}
