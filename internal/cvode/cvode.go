// Package cvode implements a variable-order, variable-step backward
// differentiation formula (BDF) integrator for stiff ODE systems, with
// modified-Newton iteration over a dense finite-difference Jacobian —
// the same method family and controls as the CVODE library the paper's
// CvodeComponent wraps. A fixed-point (functional) iteration mode
// covers non-stiff use, mirroring CVODE's Adams/functional option.
package cvode

import (
	"errors"
	"fmt"
	"math"
)

// RHS evaluates ydot = f(t, y).
type RHS func(t float64, y, ydot []float64)

// Jac fills jac, row-major n*n, with the dense Jacobian df/dy at
// (t, y). Supplied via Options.Jac it replaces the finite-difference
// sweep (n+1 RHS evaluations per build) with a single analytic
// evaluation; an approximate Jacobian is fine, since the modified
// Newton iteration only needs a contraction, not an exact derivative.
type Jac func(t float64, y, jac []float64)

// Options configures a Solver. Zero values select documented defaults.
type Options struct {
	// RelTol is the relative tolerance (default 1e-6).
	RelTol float64
	// AbsTol is the absolute tolerance, scalar applied to every
	// component (default 1e-10); AbsTolVec overrides per component.
	AbsTol    float64
	AbsTolVec []float64
	// MaxOrder caps the BDF order in [1, 5] (default 5).
	MaxOrder int
	// InitialStep, MinStep, MaxStep bound the step size. Defaults:
	// automatic initial step, MinStep ~ 1e4*ulp, MaxStep unbounded.
	InitialStep, MinStep, MaxStep float64
	// MaxSteps bounds internal steps per Integrate call (default 100000).
	MaxSteps int
	// Stiff selects Newton iteration (true, default) or fixed-point
	// iteration (false).
	Stiff *bool
	// Jac, when non-nil, supplies the Jacobian analytically; finite
	// differences remain the fallback.
	Jac Jac
}

// Stats counts the work performed.
type Stats struct {
	Steps    int
	RHSEvals int
	// JacEvals counts Jacobian builds of either kind;
	// JacBuildsAnalytic and JacBuildsFD split it by source, and
	// JacReuses counts gamma-drift refactors that reused the stored
	// Jacobian instead of rebuilding it.
	JacEvals          int
	JacBuildsAnalytic int
	JacBuildsFD       int
	JacReuses         int
	NewtonIters       int
	ErrTestFails      int
	ConvFails         int
	LastStep          float64
	LastOrder         int
}

// Errors reported by the integrator.
var (
	ErrTooMuchWork  = errors.New("cvode: maximum step count exceeded")
	ErrStepTooSmall = errors.New("cvode: step size underflow")

	// Nonlinear-iteration failures stay inside Step, which retries
	// with a smaller step.
	errDivergence    = errors.New("cvode: nonlinear divergence")
	errNoConvergence = errors.New("cvode: nonlinear iteration failed to converge")
)

const maxHistory = 7 // up to order 5 needs 7 points for order-raise test

// Solver integrates one ODE system. Not safe for concurrent use.
type Solver struct {
	n   int
	f   RHS
	opt Options

	stiff bool

	t float64
	y []float64

	// History ring: ts[0], ys[0] is the most recent accepted point;
	// entries past nHist are stale. The rows are solver-owned:
	// pushHistory rotates the row headers and recycles the oldest row.
	ts    [maxHistory]float64
	ys    [maxHistory][]float64
	nHist int

	order int

	h float64

	// growthCap limits step growth after the last step (set to 1 after
	// a failed attempt, CVODE's etamax rule).
	growthCap float64
	// sinceOrderChange counts accepted steps since the order last
	// changed; order changes are held off for order+1 steps so the
	// history reflects the current order before re-deciding.
	sinceOrderChange int
	// cleanStreak counts consecutive accepted steps without any failed
	// attempt; it widens the growth cap so startup can expand h fast
	// while post-failure regimes grow gently (big jumps re-trigger the
	// nonlinear failures that caused them).
	cleanStreak int

	// Newton machinery. newton holds the iteration matrix refactor
	// forms; it is factored into luSpare, which is swapped with lu only
	// on success, so a singular refactor leaves lu intact.
	jac, newton *Dense
	lu, luSpare *LU
	gammaJac    float64 // gamma at last Jacobian build
	haveJac     bool

	// Scratch.
	ytmp, ftmp, delta, pred, beta []float64
	ewt                           []float64
	fdBase, fdY                   []float64 // finite-difference Jacobian
	nodes, coef                   [maxHistory]float64

	stats Stats
}

// New creates a solver for an n-dimensional system.
func New(n int, f RHS, opt Options) *Solver {
	if opt.RelTol <= 0 {
		opt.RelTol = 1e-6
	}
	if opt.AbsTol <= 0 {
		opt.AbsTol = 1e-10
	}
	if opt.MaxOrder <= 0 || opt.MaxOrder > 5 {
		opt.MaxOrder = 5
	}
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 100000
	}
	s := &Solver{
		n: n, f: f, opt: opt,
		stiff:   opt.Stiff == nil || *opt.Stiff,
		ytmp:    make([]float64, n),
		ftmp:    make([]float64, n),
		delta:   make([]float64, n),
		pred:    make([]float64, n),
		beta:    make([]float64, n),
		ewt:     make([]float64, n),
		fdBase:  make([]float64, n),
		fdY:     make([]float64, n),
		jac:     NewDense(n),
		newton:  NewDense(n),
		lu:      newLU(n),
		luSpare: newLU(n),
	}
	rows := make([]float64, maxHistory*n)
	for i := range s.ys {
		s.ys[i] = rows[i*n : (i+1)*n : (i+1)*n]
	}
	return s
}

// Init sets the initial condition and resets all state.
func (s *Solver) Init(t0 float64, y0 []float64) {
	if len(y0) != s.n {
		panic(fmt.Sprintf("cvode: Init dimension %d != %d", len(y0), s.n))
	}
	s.t = t0
	s.y = append(s.y[:0], y0...)
	s.ts[0] = t0
	copy(s.ys[0], y0)
	s.nHist = 1
	s.order = 1
	s.h = 0
	s.sinceOrderChange = 0
	s.cleanStreak = 0
	s.growthCap = 5
	s.haveJac = false
	s.stats = Stats{}
}

// T returns the current time.
func (s *Solver) T() float64 { return s.t }

// Y returns the current state (live slice; copy before mutating).
func (s *Solver) Y() []float64 { return s.y }

// Stats returns work counters.
func (s *Solver) Stats() Stats { return s.stats }

func (s *Solver) errWeights() {
	for i := 0; i < s.n; i++ {
		at := s.opt.AbsTol
		if s.opt.AbsTolVec != nil {
			at = s.opt.AbsTolVec[i]
		}
		s.ewt[i] = 1 / (s.opt.RelTol*math.Abs(s.y[i]) + at)
	}
}

// wrms computes the weighted RMS norm of v with current weights.
func (s *Solver) wrms(v []float64) float64 {
	var sum float64
	for i, x := range v {
		w := x * s.ewt[i]
		sum += w * w
	}
	return math.Sqrt(sum / float64(s.n))
}

// initialStep picks h0 from the RHS magnitude (CVODE-like heuristic).
func (s *Solver) initialStep() float64 {
	if s.opt.InitialStep > 0 {
		return s.opt.InitialStep
	}
	s.f(s.t, s.y, s.ftmp)
	s.stats.RHSEvals++
	s.errWeights()
	fn := s.wrms(s.ftmp)
	h := 1e-6
	if fn > 0 {
		h = 0.01 / fn
	}
	if s.opt.MaxStep > 0 && h > s.opt.MaxStep {
		h = s.opt.MaxStep
	}
	return h
}

// startStep is the first step of an integration: the initialStep
// estimate, raised to the step floor (minStep) when it lands below it.
// A cold restart deep inside a stiff transient can estimate a step
// under the floor, and Step would refuse it with ErrStepTooSmall
// before trying it; SUNDIALS' cvHin bounds its estimate from below the
// same way. An estimate at or above the floor is returned unchanged.
func (s *Solver) startStep() float64 {
	return math.Max(s.initialStep(), s.minStep())
}

// pushHistory records an accepted step in the recycled oldest row.
func (s *Solver) pushHistory(t float64, y []float64) {
	oldest := s.ys[maxHistory-1]
	copy(s.ys[1:], s.ys[:maxHistory-1])
	copy(s.ts[1:], s.ts[:maxHistory-1])
	s.ys[0], s.ts[0] = oldest, t
	copy(oldest, y)
	if s.nHist < maxHistory {
		s.nHist++
	}
}

// lagrangeDeriv computes the coefficients c_j = L_j'(tn) of the
// Lagrange interpolation through nodes[0..k] evaluated at tn =
// nodes[0]; nodes[0] is the new time.
func lagrangeDeriv(nodes []float64, out []float64) {
	k := len(nodes) - 1
	tn := nodes[0]
	for j := 0; j <= k; j++ {
		// L_j'(tn) with tn one of the nodes (node 0).
		if j == 0 {
			var sum float64
			for m := 1; m <= k; m++ {
				sum += 1 / (tn - nodes[m])
			}
			out[0] = sum
			continue
		}
		// L_j'(tn) = [Π_{m≠j,m≠0} (tn-nodes[m])] / [Π_{m≠j} (nodes[j]-nodes[m])]
		num := 1.0
		for m := 0; m <= k; m++ {
			if m == j || m == 0 {
				continue
			}
			num *= tn - nodes[m]
		}
		den := 1.0
		for m := 0; m <= k; m++ {
			if m == j {
				continue
			}
			den *= nodes[j] - nodes[m]
		}
		out[j] = num / den
	}
}

// predictAt extrapolates the history polynomial of the given order
// (using points ts[0..order]) to time tn, writing into out. Returns
// false if not enough history.
func (s *Solver) predictAt(order int, tn float64, out []float64) bool {
	if s.nHist < order+1 {
		return false
	}
	// Lagrange evaluation at tn through (ts[i], ys[i]), i=0..order.
	for i := range out {
		out[i] = 0
	}
	for j := 0; j <= order; j++ {
		w := 1.0
		for m := 0; m <= order; m++ {
			if m == j {
				continue
			}
			w *= (tn - s.ts[m]) / (s.ts[j] - s.ts[m])
		}
		yj := s.ys[j]
		for i := range out {
			out[i] += w * yj[i]
		}
	}
	return true
}

// buildJacobian computes J = df/dy — analytically when Options.Jac is
// set, by forward differences otherwise — and factors I - gamma J.
func (s *Solver) buildJacobian(tn float64, y []float64, gamma float64) error {
	if s.opt.Jac != nil {
		s.opt.Jac(tn, y, s.jac.A)
		s.stats.JacEvals++
		s.stats.JacBuildsAnalytic++
		if err := s.refactor(gamma); err != nil {
			return err
		}
		s.haveJac = true
		return nil
	}
	s.f(tn, y, s.ftmp)
	s.stats.RHSEvals++
	base := s.fdBase
	copy(base, s.ftmp)
	yp := s.fdY
	copy(yp, y)
	uround := 2.22e-16
	srur := math.Sqrt(uround)
	for j := 0; j < s.n; j++ {
		// Difference increment: relative to |y_j|, floored at an
		// absolute srur so columns for zero or trace components still
		// carry signal above the round-off of the f evaluations. (A
		// cancellation-starved column makes Newton diverge and the
		// step controller collapse — chemistry with trace radicals is
		// the canonical victim.)
		dy := srur * math.Max(math.Abs(y[j]), 1)
		yp[j] = y[j] + dy
		s.f(tn, yp, s.ftmp)
		s.stats.RHSEvals++
		inv := 1 / dy
		for i := 0; i < s.n; i++ {
			s.jac.Set(i, j, (s.ftmp[i]-base[i])*inv)
		}
		yp[j] = y[j]
	}
	s.stats.JacEvals++
	s.stats.JacBuildsFD++
	if err := s.refactor(gamma); err != nil {
		return err
	}
	s.haveJac = true
	return nil
}

// refactor forms and factors the Newton matrix from the stored
// Jacobian, equilibrated in the error-weighted space:
//
//	M' = I - gamma D J D^{-1},  D = diag(ewt)
//
// Chemistry Jacobians span ~14 orders of magnitude between rows;
// factoring the raw M loses the small-scale rows to round-off and the
// resulting Newton steps explode along near-null directions. In the
// weighted space all components are tolerance-comparable and partial
// pivoting is reliable.
func (s *Solver) refactor(gamma float64) error {
	n := s.n
	ewt := s.ewt[:n]
	for i := 0; i < n; i++ {
		jrow := s.jac.A[i*n : i*n+n]
		mrow := s.newton.A[i*n : i*n+n]
		wi := ewt[i]
		for j, jij := range jrow {
			v := -gamma * wi * jij / ewt[j]
			if i == j {
				v += 1
			}
			mrow[j] = v
		}
	}
	if err := factorInto(s.luSpare, s.newton); err != nil {
		return err
	}
	s.lu, s.luSpare = s.luSpare, s.lu
	s.gammaJac = gamma
	return nil
}

// solveNonlinear solves y = gamma f(tn,y) + beta starting from pred.
// Returns the converged y in s.ytmp, or an error.
func (s *Solver) solveNonlinear(tn, gamma float64) error {
	copy(s.ytmp, s.pred)
	const maxIter = 25
	var firstNorm, prevNorm float64
	damp := 1.0
	for iter := 0; iter < maxIter; iter++ {
		s.f(tn, s.ytmp, s.ftmp)
		s.stats.RHSEvals++
		// Residual G = y - gamma f - beta.
		for i := 0; i < s.n; i++ {
			s.delta[i] = s.ytmp[i] - gamma*s.ftmp[i] - s.beta[i]
		}
		if s.stiff {
			// Solve in the weighted space: delta = D^{-1} M'^{-1} D G.
			for i := 0; i < s.n; i++ {
				s.delta[i] *= s.ewt[i]
			}
			s.lu.Solve(s.delta)
			for i := 0; i < s.n; i++ {
				s.delta[i] /= s.ewt[i]
			}
		}
		norm := s.wrms(s.delta)
		// Adaptive damping: the weighted iteration matrix of combustion
		// chemistry is strongly non-normal, so undamped steps can grow
		// transiently before contracting; halve the relaxation whenever
		// the step norm grows, recover it geometrically on decay.
		if iter > 0 {
			if norm > prevNorm {
				damp = math.Max(damp*0.5, 0.125)
			} else if damp < 1 {
				damp = math.Min(1, damp*2)
			}
		}
		prevNorm = norm
		for i := 0; i < s.n; i++ {
			s.ytmp[i] -= damp * s.delta[i]
		}
		s.stats.NewtonIters++
		if norm < 0.1 { // tolerance relative to the error test (CVODE uses 0.1*errtol)
			return nil
		}
		// The weighted iteration matrix of stiff chemistry is strongly
		// non-normal: norms often grow for several iterations (a
		// transient hump) before contracting. Declare divergence only
		// when the norm has grown far beyond the initial residual.
		if iter == 0 {
			firstNorm = norm
		} else if norm > 50*firstNorm && norm > 1 {
			return errDivergence
		}
	}
	return errNoConvergence
}

// attemptStep tries one step of the given order and size. On success it
// leaves the candidate solution in ytmp and returns the local error
// estimate; on nonlinear failure it returns convErr.
func (s *Solver) attemptStep(order int, h float64) (errNorm float64, err error) {
	tn := s.t + h
	nodes := s.nodes[:order+1]
	nodes[0] = tn
	for j := 1; j <= order; j++ {
		nodes[j] = s.ts[j-1]
	}
	coef := s.coef[:order+1]
	lagrangeDeriv(nodes, coef)
	gamma := 1 / coef[0]
	// beta = -(1/c0) Σ_{j>=1} c_j y_{n-j}
	for i := 0; i < s.n; i++ {
		s.beta[i] = 0
	}
	for j := 1; j <= order; j++ {
		cj := coef[j] * gamma
		yj := s.ys[j-1]
		for i := 0; i < s.n; i++ {
			s.beta[i] -= cj * yj[i]
		}
	}
	// Predictor: extrapolate through the last order+1 points (or fewer).
	po := order
	if s.nHist < po+1 {
		po = s.nHist - 1
	}
	if po < 1 {
		copy(s.pred, s.y)
	} else {
		s.predictAt(po, tn, s.pred)
	}

	if s.stiff {
		// (Re)build or refactor the iteration matrix when gamma drifted.
		if !s.haveJac {
			if jerr := s.buildJacobian(tn, s.pred, gamma); jerr != nil {
				return 0, jerr
			}
		} else if math.Abs(gamma-s.gammaJac) > 0.3*math.Abs(s.gammaJac) {
			s.stats.JacReuses++
			if jerr := s.refactor(gamma); jerr != nil {
				return 0, jerr
			}
		}
	}

	if nerr := s.solveNonlinear(tn, gamma); nerr != nil {
		// One retry with a fresh Jacobian before reporting failure.
		if s.stiff {
			if jerr := s.buildJacobian(tn, s.pred, gamma); jerr != nil {
				return 0, jerr
			}
			if nerr2 := s.solveNonlinear(tn, gamma); nerr2 == nil {
				goto converged
			}
		}
		return 0, nerr
	}
converged:
	// Error estimate: distance between the BDF solution and the
	// explicit predictor of the same order, scaled by 1/(order+1).
	if po >= order {
		for i := 0; i < s.n; i++ {
			s.delta[i] = s.ytmp[i] - s.pred[i]
		}
		errNorm = s.wrms(s.delta) / float64(order+1)
	} else {
		// Not enough history for a same-order predictor (startup):
		// be conservative.
		for i := 0; i < s.n; i++ {
			s.delta[i] = s.ytmp[i] - s.pred[i]
		}
		errNorm = s.wrms(s.delta)
	}
	return errNorm, nil
}

// minStep is the step floor at the current time: Options.MinStep when
// set, else 1e4 unit roundoffs of |t|.
func (s *Solver) minStep() float64 {
	if s.opt.MinStep > 0 {
		return s.opt.MinStep
	}
	return 1e4 * 2.22e-16 * math.Max(math.Abs(s.t), 1e-30)
}

// Step advances one internal step with error control.
func (s *Solver) Step() error {
	if s.h == 0 {
		s.h = s.startStep()
	}
	minStep := s.minStep()
	s.errWeights()
	for try := 0; try < 30; try++ {
		if s.opt.MaxStep > 0 && s.h > s.opt.MaxStep {
			s.h = s.opt.MaxStep
		}
		if math.Abs(s.h) < minStep {
			return ErrStepTooSmall
		}
		order := s.order
		if order > s.nHist {
			order = s.nHist
		}
		errNorm, err := s.attemptStep(order, s.h)
		if err != nil {
			s.stats.ConvFails++
			s.h *= 0.25
			s.haveJac = false
			s.growthCap = 1 // CVODE's etamax rule: no growth right after a failure
			s.cleanStreak = 0
			continue
		}
		if errNorm > 1 {
			s.stats.ErrTestFails++
			fac := stepFactor(errNorm, order)
			s.h *= math.Max(0.1, math.Min(0.9, fac))
			s.growthCap = 1
			s.cleanStreak = 0
			continue
		}
		// Accept.
		tn := s.t + s.h
		copy(s.y, s.ytmp)
		s.t = tn
		s.pushHistory(tn, s.y)
		s.stats.Steps++
		s.stats.LastStep = s.h
		s.stats.LastOrder = order
		s.adaptOrderAndStep(order, errNorm)
		return nil
	}
	return ErrStepTooSmall
}

// adaptOrderAndStep chooses the next order and step from predictor
// errors at order-1, order, order+1.
func (s *Solver) adaptOrderAndStep(order int, errNorm float64) {
	bestOrder := order
	bestFac := stepFactor(errNorm, order)
	s.sinceOrderChange++
	if s.sinceOrderChange > order {
		// Lower order.
		if order > 1 {
			if e := s.predictorError(order - 1); e >= 0 {
				if f := stepFactor(e, order-1); f > bestFac {
					bestFac, bestOrder = f, order-1
				}
			}
		}
		// Higher order.
		if order < s.opt.MaxOrder && s.nHist >= order+2 {
			if e := s.predictorError(order + 1); e >= 0 {
				if f := stepFactor(e, order+1); f > bestFac {
					bestFac, bestOrder = f, order+1
				}
			}
		}
	}
	if bestOrder != s.order {
		s.sinceOrderChange = 0
	}
	s.order = bestOrder
	cap := s.growthCap
	if cap <= 0 {
		cap = 5
	}
	// Widen the cap with the clean streak: 1.5 right after trouble,
	// up to 10 once the solver has settled.
	s.cleanStreak++
	streakCap := 1.5
	switch {
	case s.cleanStreak > 8:
		streakCap = 10
	case s.cleanStreak > 4:
		streakCap = 5
	case s.cleanStreak > 2:
		streakCap = 2.5
	}
	if streakCap < cap {
		cap = streakCap
	}
	s.h *= math.Max(0.2, math.Min(cap, bestFac))
	s.growthCap = 5
}

// predictorError evaluates, a posteriori, how well an order-q predictor
// through older points reproduces the newest accepted point; returns
// the weighted norm scaled as an order-q error estimate, or -1 if
// history is insufficient.
func (s *Solver) predictorError(q int) float64 {
	if s.nHist < q+2 {
		return -1
	}
	// Predict ys[0] from points 1..q+1.
	tn := s.ts[0]
	for i := range s.pred {
		s.pred[i] = 0
	}
	for j := 1; j <= q+1; j++ {
		w := 1.0
		for m := 1; m <= q+1; m++ {
			if m == j {
				continue
			}
			w *= (tn - s.ts[m]) / (s.ts[j] - s.ts[m])
		}
		yj := s.ys[j]
		for i := range s.pred {
			s.pred[i] += w * yj[i]
		}
	}
	for i := 0; i < s.n; i++ {
		s.delta[i] = s.ys[0][i] - s.pred[i]
	}
	return s.wrms(s.delta) / float64(q+1)
}

// stepFactor is CVODE's biased step multiplier: it drives the
// controller toward err ~ 1/6 rather than the acceptance boundary 1,
// so accepted history points carry errors well below tolerance. (A
// controller that rides the boundary plants O(1)-weighted errors in
// the history, which contaminate the predictor-corrector error
// estimate of later steps and lock the solver into a small-step limit
// cycle.)
func stepFactor(errNorm float64, order int) float64 {
	if errNorm <= 0 {
		return 5
	}
	return 1 / (math.Pow(6*errNorm, 1/float64(order+1)) + 1e-6)
}

// Integrate advances the solution to tEnd (forward time only).
func (s *Solver) Integrate(tEnd float64) error {
	if tEnd < s.t {
		return fmt.Errorf("cvode: tEnd %v < current t %v", tEnd, s.t)
	}
	steps := 0
	for s.t < tEnd {
		if steps >= s.opt.MaxSteps {
			return ErrTooMuchWork
		}
		if s.h == 0 {
			s.h = s.startStep()
		}
		if s.t+s.h > tEnd {
			s.h = tEnd - s.t
		}
		if err := s.Step(); err != nil {
			return err
		}
		steps++
		// An accepted step can stop short of tEnd by less than the step
		// floor (t + (tEnd−t) rounds one ulp low), and no step can cover
		// that remainder: stretch the step onto tEnd, as SUNDIALS does
		// at tstop. Only a step after which Step would fail with
		// ErrStepTooSmall takes this branch, so no other result moves.
		if r := tEnd - s.t; r > 0 && r < s.minStep() {
			s.t = tEnd
			s.ts[0] = tEnd
		}
	}
	return nil
}
