package cvode

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// robertson is the classic stiff kinetics problem; it drives the
// solver through order changes up to the full history ring, Jacobian
// rebuilds, gamma-drift refactors and failed attempts.
func robertson(_ float64, y, ydot []float64) {
	ydot[0] = -0.04*y[0] + 1e4*y[1]*y[2]
	ydot[2] = 3e7 * y[1] * y[1]
	ydot[1] = -ydot[0] - ydot[2]
}

func robertsonJac(_ float64, y, jac []float64) {
	jac[0], jac[1], jac[2] = -0.04, 1e4*y[2], 1e4*y[1]
	jac[6], jac[7], jac[8] = 0, 6e7*y[1], 0
	jac[3], jac[4], jac[5] = -jac[0]-jac[6], -jac[1]-jac[7], -jac[2]-jac[8]
}

// A warmed solver re-initialized and integrated again allocates
// nothing: history rows, quadrature nodes, finite-difference copies,
// the Newton matrix and both LU buffers are all solver-owned.
func TestWarmSolverAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		jac  Jac
	}{{"analytic", robertsonJac}, {"fd", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(3, robertson, Options{RelTol: 1e-8, AbsTol: 1e-12, Jac: tc.jac})
			y0 := []float64{1, 0, 0}
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				s.Init(0, y0)
				err = s.Integrate(40)
			})
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.JacEvals == 0 || st.JacReuses == 0 || st.LastOrder < 3 {
				t.Fatalf("run too easy to cover the Newton paths: %+v", st)
			}
			if allocs != 0 {
				t.Errorf("warm Init+Integrate allocated %v times, want 0", allocs)
			}
		})
	}
}

// A refactor that meets a singular Newton matrix reports ErrSingular and
// leaves the previous factorization (and its gamma) in place: later
// solves are bit-equal to solves made before the failed refactor.
func TestSingularRefactorKeepsFactorization(t *testing.T) {
	s := New(2, func(_ float64, y, ydot []float64) {}, Options{})
	for i := range s.ewt {
		s.ewt[i] = 1
	}
	// J = [[0 1] [1 0]]: I - 0.5 J is regular and pivots at k = 0.
	copy(s.jac.A, []float64{0, 1, 1, 0})
	if err := s.refactor(0.5); err != nil {
		t.Fatal(err)
	}
	b0 := []float64{3, -7}
	want := append([]float64(nil), b0...)
	s.lu.Solve(want)

	// I - 1 J with J = I is the zero matrix.
	copy(s.jac.A, []float64{1, 0, 0, 1})
	if err := s.refactor(1); err != ErrSingular {
		t.Fatalf("refactor err = %v, want ErrSingular", err)
	}
	if s.gammaJac != 0.5 {
		t.Errorf("gammaJac = %v after failed refactor, want 0.5", s.gammaJac)
	}
	got := append([]float64(nil), b0...)
	s.lu.Solve(got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("x[%d] = %v after failed refactor, want %v", i, got[i], want[i])
		}
	}
}

// Solvers running on GOMAXPROCS goroutines at once reproduce the serial
// results bit for bit: no scratch is shared through package scope.
func TestConcurrentSolversMatchSerial(t *testing.T) {
	type result struct {
		y  []float64
		st Stats
	}
	run := func(jac Jac) result {
		s := New(3, robertson, Options{RelTol: 1e-8, AbsTol: 1e-12, Jac: jac})
		for rep := 0; rep < 2; rep++ {
			s.Init(0, []float64{1, 0, 0})
			if err := s.Integrate(40); err != nil {
				t.Error(err)
			}
		}
		return result{append([]float64(nil), s.Y()...), s.Stats()}
	}
	jacs := []Jac{robertsonJac, nil}
	serial := make([]result, len(jacs))
	for i, j := range jacs {
		serial[i] = run(j)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	got := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(jacs[w%len(jacs)])
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		want := serial[w%len(jacs)]
		if g.st != want.st {
			t.Errorf("worker %d stats %+v, serial %+v", w, g.st, want.st)
		}
		for i := range want.y {
			if math.Float64bits(g.y[i]) != math.Float64bits(want.y[i]) {
				t.Errorf("worker %d y[%d] = %v, serial %v", w, i, g.y[i], want.y[i])
			}
		}
	}
}
