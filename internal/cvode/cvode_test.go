package cvode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))+1e-300
}

// ---- LU -----------------------------------------------------------------

// factor factors m into fresh storage.
func factor(m *Dense) (*LU, error) {
	f := newLU(m.N)
	return f, factorInto(f, m)
}

func TestLUSolveKnown(t *testing.T) {
	m := NewDense(3)
	vals := [][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}}
	for i := range vals {
		for j := range vals[i] {
			m.Set(i, j, vals[i][j])
		}
	}
	lu, err := factor(m)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{5, -2, 9}
	lu.Solve(b)
	want := []float64{1, 1, 2}
	for i := range want {
		if !almost(b[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := factor(m); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// Property: random diagonally dominant systems solve to machine
// accuracy (residual check).
func TestLURandomProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewDense(n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				v := rng.Float64()*2 - 1
				m.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			m.Set(i, i, rowSum+1) // dominance
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += m.At(i, j) * x[j]
			}
		}
		lu, err := factor(m)
		if err != nil {
			return false
		}
		lu.Solve(b)
		for i := range x {
			if !almost(b[i], x[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A 3x3 system whose factorization swaps rows at k = 0 and again at
// k = 1: the second swap moves L multipliers already stored, so the
// solve must apply every row swap before forward substitution.
func TestLUSolveSwapAfterFirstColumn(t *testing.T) {
	m := NewDense(3)
	copy(m.A, []float64{
		2, 1, 1,
		1, 0.5, 3,
		4, 1, 1,
	})
	lu, err := factor(m)
	if err != nil {
		t.Fatal(err)
	}
	if lu.piv[1] == 1 {
		t.Fatalf("fixture no longer pivots at k = 1: piv = %v", lu.piv)
	}
	b := []float64{7, 11, 9} // A [1 2 3]
	lu.Solve(b)
	for i, want := range []float64{1, 2, 3} {
		if !almost(b[i], want, 1e-12) {
			t.Errorf("x = %v, want [1 2 3]", b)
			break
		}
	}
}

// Property: general (not diagonally dominant) Gaussian systems, which
// pivot at arbitrary steps, solve with a small residual.
func TestLUPivotingProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%9) + 2
		rng := rand.New(rand.NewSource(seed))
		m := NewDense(n)
		for i := range m.A {
			m.A[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += m.At(i, j) * x[j]
			}
		}
		lu, err := factor(m)
		if err != nil {
			return true // a singular draw says nothing about Solve
		}
		sol := append([]float64(nil), b...)
		lu.Solve(sol)
		// Backward-stable check: residual relative to |A| |x| + |b|.
		for i := 0; i < n; i++ {
			r, scale := -b[i], math.Abs(b[i])
			for j := 0; j < n; j++ {
				r += m.At(i, j) * sol[j]
				scale += math.Abs(m.At(i, j) * sol[j])
			}
			if math.Abs(r) > 1e-10*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ---- integrator: accuracy ------------------------------------------------

func TestExponentialDecay(t *testing.T) {
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -y[0] },
		Options{RelTol: 1e-8, AbsTol: 1e-12})
	s.Init(0, []float64{1})
	if err := s.Integrate(2); err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-2)
	if !almost(s.Y()[0], want, 1e-6) {
		t.Errorf("y(2) = %v, want %v", s.Y()[0], want)
	}
	if s.T() != 2 {
		t.Errorf("t = %v", s.T())
	}
}

func TestLinearOscillatorNonStiff(t *testing.T) {
	nonstiff := false
	s := New(2, func(_ float64, y, ydot []float64) {
		ydot[0] = y[1]
		ydot[1] = -y[0]
	}, Options{RelTol: 1e-8, AbsTol: 1e-10, Stiff: &nonstiff})
	s.Init(0, []float64{1, 0})
	if err := s.Integrate(math.Pi / 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Y()[0]) > 1e-4 || !almost(s.Y()[1], -1, 1e-4) {
		t.Errorf("y(pi/2) = %v, want [0 -1]", s.Y())
	}
}

func TestStiffLinearSystem(t *testing.T) {
	// y1' = -1000 y1 + y2; y2' = -y2. Stiffness ratio 1000.
	s := New(2, func(_ float64, y, ydot []float64) {
		ydot[0] = -1000*y[0] + y[1]
		ydot[1] = -y[1]
	}, Options{RelTol: 1e-8, AbsTol: 1e-12})
	s.Init(0, []float64{1, 1})
	if err := s.Integrate(1); err != nil {
		t.Fatal(err)
	}
	// Analytic: y2 = e^-t; y1 = (1 - 1/999) e^-1000t + (1/999) e^-t.
	wantY2 := math.Exp(-1)
	wantY1 := math.Exp(-1) / 999
	if !almost(s.Y()[1], wantY2, 1e-6) {
		t.Errorf("y2(1) = %v, want %v", s.Y()[1], wantY2)
	}
	if !almost(s.Y()[0], wantY1, 1e-4) {
		t.Errorf("y1(1) = %v, want %v", s.Y()[0], wantY1)
	}
	// Stiff solver must not need ~1000 steps per unit time.
	if s.Stats().Steps > 500 {
		t.Errorf("steps = %d; implicit method should coarsen past the transient", s.Stats().Steps)
	}
}

func TestRobertson(t *testing.T) {
	// The classic stiff benchmark.
	f := func(_ float64, y, ydot []float64) {
		ydot[0] = -0.04*y[0] + 1e4*y[1]*y[2]
		ydot[2] = 3e7 * y[1] * y[1]
		ydot[1] = -ydot[0] - ydot[2]
	}
	s := New(3, f, Options{RelTol: 1e-8, AbsTol: 1e-12})
	s.Init(0, []float64{1, 0, 0})
	if err := s.Integrate(40); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.7158271, 9.1855e-6, 0.2841637}
	for i := range want {
		if !almost(s.Y()[i], want[i], 2e-3) {
			t.Errorf("y[%d](40) = %v, want %v", i, s.Y()[i], want[i])
		}
	}
	// Conservation: components sum to 1.
	if sum := s.Y()[0] + s.Y()[1] + s.Y()[2]; !almost(sum, 1, 1e-6) {
		t.Errorf("sum = %v", sum)
	}
}

func TestVanDerPolStiff(t *testing.T) {
	mu := 100.0
	f := func(_ float64, y, ydot []float64) {
		ydot[0] = y[1]
		ydot[1] = mu*(1-y[0]*y[0])*y[1] - y[0]
	}
	s := New(2, f, Options{RelTol: 1e-6, AbsTol: 1e-9})
	s.Init(0, []float64{2, 0})
	if err := s.Integrate(100); err != nil {
		t.Fatal(err)
	}
	// After a bit over half a period (T ≈ 162 for mu=100), the solution
	// remains bounded in [-2.1, 2.1].
	if math.Abs(s.Y()[0]) > 2.2 {
		t.Errorf("y(100) = %v, |y| must stay <= ~2", s.Y()[0])
	}
}

func TestToleranceControlsError(t *testing.T) {
	run := func(rtol float64) float64 {
		s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -y[0] },
			Options{RelTol: rtol, AbsTol: rtol * 1e-4})
		s.Init(0, []float64{1})
		if err := s.Integrate(5); err != nil {
			t.Fatal(err)
		}
		return math.Abs(s.Y()[0] - math.Exp(-5))
	}
	eLoose := run(1e-4)
	eTight := run(1e-10)
	if eTight >= eLoose {
		t.Errorf("tight tol error %v >= loose %v", eTight, eLoose)
	}
	if eTight > 1e-9 {
		t.Errorf("tight error = %v", eTight)
	}
}

func TestOrderClimbs(t *testing.T) {
	// On a smooth problem the order should exceed 1 quickly.
	s := New(1, func(tt float64, y, ydot []float64) { ydot[0] = math.Cos(tt) },
		Options{RelTol: 1e-10, AbsTol: 1e-12})
	s.Init(0, []float64{0})
	if err := s.Integrate(3); err != nil {
		t.Fatal(err)
	}
	if s.Stats().LastOrder < 2 {
		t.Errorf("order stayed at %d", s.Stats().LastOrder)
	}
	if !almost(s.Y()[0], math.Sin(3), 1e-7) {
		t.Errorf("y(3) = %v, want %v", s.Y()[0], math.Sin(3))
	}
}

func TestMaxOrderRespected(t *testing.T) {
	s := New(1, func(tt float64, y, ydot []float64) { ydot[0] = math.Cos(tt) },
		Options{RelTol: 1e-10, AbsTol: 1e-12, MaxOrder: 2})
	s.Init(0, []float64{0})
	if err := s.Integrate(3); err != nil {
		t.Fatal(err)
	}
	if s.Stats().LastOrder > 2 {
		t.Errorf("order %d exceeds cap", s.Stats().LastOrder)
	}
}

func TestIntegrateStopsExactlyAtTEnd(t *testing.T) {
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = 1 },
		Options{RelTol: 1e-6, AbsTol: 1e-9})
	s.Init(0, []float64{0})
	if err := s.Integrate(0.3333); err != nil {
		t.Fatal(err)
	}
	if s.T() != 0.3333 {
		t.Errorf("t = %v", s.T())
	}
	if !almost(s.Y()[0], 0.3333, 1e-10) {
		t.Errorf("y = %v", s.Y()[0])
	}
}

// A last step clamped to tEnd−t whose sum t+h rounds one ulp short of
// tEnd leaves a remainder below the step floor; the step is stretched
// onto tEnd instead of failing with ErrStepTooSmall on the remainder.
func TestIntegrateStretchesStopTimeSliver(t *testing.T) {
	t0, tEnd := 3.9866413605677226e-08, 1.02e-07
	if t0+(tEnd-t0) >= tEnd {
		t.Fatal("fixture no longer rounds short of tEnd")
	}
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -y[0] },
		Options{RelTol: 1e-6, AbsTol: 1e-9, InitialStep: 1e-6})
	s.Init(t0, []float64{1})
	if err := s.Integrate(tEnd); err != nil {
		t.Fatal(err)
	}
	if s.T() != tEnd || s.Stats().Steps != 1 {
		t.Errorf("t = %v after %d steps, want %v after 1", s.T(), s.Stats().Steps, tEnd)
	}
	// The history agrees with the stretched time: integrating on works.
	if err := s.Integrate(2 * tEnd); err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-(2*tEnd - t0)); !almost(s.Y()[0], want, 1e-9) {
		t.Errorf("y = %v, want %v", s.Y()[0], want)
	}
}

// A first-step estimate below the step floor starts the integration at
// the floor instead of failing with ErrStepTooSmall before any step is
// tried (the cold restart inside a stiff transient). Here the estimate
// is pinned below the floor through Options.
func TestStartStepRaisedToFloor(t *testing.T) {
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -y[0] },
		Options{RelTol: 1e-6, AbsTol: 1e-9, InitialStep: 1e-20, MinStep: 1e-12})
	s.Init(0, []float64{1})
	if err := s.Integrate(1); err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-1); !almost(s.Y()[0], want, 1e-5) {
		t.Errorf("y = %v, want %v", s.Y()[0], want)
	}
}

func TestIntegrateBackwardRejected(t *testing.T) {
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = 1 }, Options{})
	s.Init(1, []float64{0})
	if err := s.Integrate(0); err == nil {
		t.Error("expected error for backward integration")
	}
}

func TestMaxStepsEnforced(t *testing.T) {
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -y[0] },
		Options{RelTol: 1e-12, AbsTol: 1e-14, MaxSteps: 3, MaxStep: 1e-6})
	s.Init(0, []float64{1})
	if err := s.Integrate(1); err != ErrTooMuchWork {
		t.Errorf("err = %v, want ErrTooMuchWork", err)
	}
}

func TestReInitResets(t *testing.T) {
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -y[0] },
		Options{RelTol: 1e-8, AbsTol: 1e-12})
	s.Init(0, []float64{1})
	if err := s.Integrate(1); err != nil {
		t.Fatal(err)
	}
	s.Init(0, []float64{2})
	if s.T() != 0 || s.Y()[0] != 2 || s.Stats().Steps != 0 {
		t.Error("Init did not reset state")
	}
	if err := s.Integrate(1); err != nil {
		t.Fatal(err)
	}
	if !almost(s.Y()[0], 2*math.Exp(-1), 1e-6) {
		t.Errorf("y = %v", s.Y()[0])
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -y[0] },
		Options{RelTol: 1e-8, AbsTol: 1e-12})
	s.Init(0, []float64{1})
	if err := s.Integrate(1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Steps == 0 || st.RHSEvals == 0 || st.NewtonIters == 0 || st.LastStep <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.JacEvals == 0 {
		t.Errorf("stiff solve built no Jacobian: %+v", st)
	}
}

// Property: linear scalar ODEs with random decay rates integrate to the
// analytic solution within tolerance.
func TestLinearDecayProperty(t *testing.T) {
	f := func(kRaw uint8, y0Raw int8) bool {
		k := 0.1 + float64(kRaw)/8 // decay rates up to ~32
		y0 := float64(y0Raw)
		s := New(1, func(_ float64, y, ydot []float64) { ydot[0] = -k * y[0] },
			Options{RelTol: 1e-8, AbsTol: 1e-12})
		s.Init(0, []float64{y0})
		if err := s.Integrate(1); err != nil {
			return false
		}
		want := y0 * math.Exp(-k)
		// Accumulated error is bounded by rtol-scale relative error plus
		// an atol-scale floor (the analytic value can decay to ~AbsTol).
		return math.Abs(s.Y()[0]-want) <= 1e-4*math.Abs(want)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLagrangeDerivUniform(t *testing.T) {
	// Uniform grid, order 1 (BDF1): c0 = 1/h, c1 = -1/h.
	out := make([]float64, 2)
	lagrangeDeriv([]float64{1.0, 0.5}, out)
	if !almost(out[0], 2, 1e-12) || !almost(out[1], -2, 1e-12) {
		t.Errorf("BDF1 coef = %v", out)
	}
	// Order 2 uniform (h=1): c = [3/2, -2, 1/2].
	out = make([]float64, 3)
	lagrangeDeriv([]float64{2, 1, 0}, out)
	want := []float64{1.5, -2, 0.5}
	for i := range want {
		if !almost(out[i], want[i], 1e-12) {
			t.Errorf("BDF2 coef = %v", out)
		}
	}
}
