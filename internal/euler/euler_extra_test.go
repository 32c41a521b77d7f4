package euler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccahydro/internal/field"
)

// TestMirrorSymmetryPreserved: an x-symmetric initial state must stay
// exactly x-symmetric under the solver (catches directional bias bugs
// in the sweeps and limiters).
func TestMirrorSymmetryPreserved(t *testing.T) {
	nx := 64
	_, d := onePatch(nx, 8)
	dx := 1.0 / float64(nx)
	pd := d.LocalPatches(0)[0]
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			x := (float64(i) + 0.5) * dx
			p := 1 + 2*math.Exp(-((x-0.5)*(x-0.5))/0.01)
			setPrim(pd, i, j, Primitive{Rho: 1, P: p, Zeta: 0.5})
		}
	}
	s := NewSolver(1.4, GodunovFlux)
	for step := 0; step < 8; step++ {
		dt := s.StableDt(pd, dx, dx)
		heunStep(s, d, dt, dx, dx)
	}
	j := (b.Lo[1] + b.Hi[1]) / 2
	for i := 0; i < nx/2; i++ {
		mi := nx - 1 - i
		rhoL := pd.At(IRho, b.Lo[0]+i, j)
		rhoR := pd.At(IRho, b.Lo[0]+mi, j)
		if math.Abs(rhoL-rhoR) > 1e-11 {
			t.Fatalf("symmetry broken at i=%d: %v vs %v", i, rhoL, rhoR)
		}
		// x-momentum is antisymmetric.
		mxL := pd.At(IMx, b.Lo[0]+i, j)
		mxR := pd.At(IMx, b.Lo[0]+mi, j)
		if math.Abs(mxL+mxR) > 1e-11 {
			t.Fatalf("antisymmetry broken at i=%d: %v vs %v", i, mxL, mxR)
		}
	}
}

// TestXYSymmetry: rotating the problem 90 degrees must give the
// rotated solution (x and y sweeps treated identically).
func TestXYSymmetry(t *testing.T) {
	n := 32
	dx := 1.0 / float64(n)
	makeRun := func(alongX bool) *field.PatchData {
		_, d := onePatch(n, n)
		pd := d.LocalPatches(0)[0]
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				coord := float64(i)
				if !alongX {
					coord = float64(j)
				}
				x := (coord + 0.5) * dx
				w := Primitive{Rho: 1, P: 1, Zeta: 0}
				if x > 0.5 {
					w = Primitive{Rho: 0.125, P: 0.1, Zeta: 1}
				}
				setPrim(pd, i, j, w)
			}
		}
		s := NewSolver(1.4, GodunovFlux)
		for step := 0; step < 6; step++ {
			dt := s.StableDt(pd, dx, dx)
			heunStep(s, d, dt, dx, dx)
		}
		return pd
	}
	px := makeRun(true)
	py := makeRun(false)
	bx := px.Interior()
	for j := bx.Lo[1]; j <= bx.Hi[1]; j++ {
		for i := bx.Lo[0]; i <= bx.Hi[0]; i++ {
			// (i, j) in the x-run corresponds to (j, i) in the y-run.
			if math.Abs(px.At(IRho, i, j)-py.At(IRho, j, i)) > 1e-11 {
				t.Fatalf("rho xy asymmetry at (%d,%d): %v vs %v",
					i, j, px.At(IRho, i, j), py.At(IRho, j, i))
			}
			if math.Abs(px.At(IMx, i, j)-py.At(IMy, j, i)) > 1e-11 {
				t.Fatalf("momentum xy asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// TestZetaBounded: the tracked scalar stays in [0, 1] (advected
// passively, it must not create new extrema beyond limiter wiggles).
func TestZetaBounded(t *testing.T) {
	nx := 64
	_, d := onePatch(nx, 8)
	dx := 1.0 / float64(nx)
	pd := d.LocalPatches(0)[0]
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			x := (float64(i) + 0.5) * dx
			z := 0.0
			if x > 0.5 {
				z = 1
			}
			setPrim(pd, i, j, Primitive{Rho: 1, U: 0.5, P: 1, Zeta: z})
		}
	}
	s := NewSolver(1.4, GodunovFlux)
	for step := 0; step < 10; step++ {
		dt := s.StableDt(pd, dx, dx)
		heunStep(s, d, dt, dx, dx)
	}
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			z := pd.At(IZeta, i, j) / pd.At(IRho, i, j)
			if z < -0.02 || z > 1.02 {
				t.Fatalf("zeta = %v at (%d,%d)", z, i, j)
			}
		}
	}
}

// TestEFMStrongShockStability: Mach ~5 conditions that break the
// unlimited scheme must stay positive under EFM (the paper's reason
// for the swap).
func TestEFMStrongShockStability(t *testing.T) {
	nx := 128
	_, d := onePatch(nx, 4)
	dx := 1.0 / float64(nx)
	pd := d.LocalPatches(0)[0]
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			x := (float64(i) + 0.5) * dx
			w := Primitive{Rho: 1, P: 1}
			if x < 0.3 {
				w = Primitive{Rho: 5.8, U: 4.5, P: 29} // ~Mach 5 post-shock
			}
			setPrim(pd, i, j, w)
		}
	}
	s := NewSolver(1.4, EFMFlux)
	for step := 0; step < 30; step++ {
		dt := s.StableDt(pd, dx, dx)
		heunStep(s, d, dt, dx, dx)
	}
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			rho := pd.At(IRho, i, j)
			if rho <= 0 || math.IsNaN(rho) {
				t.Fatalf("rho = %v at (%d,%d)", rho, i, j)
			}
			w := s.primAt(pd, i, j)
			if m := math.Hypot(w.U, w.V) / s.Gas.SoundSpeed(w); math.IsNaN(m) || m > 20 {
				t.Fatalf("mach = %v at (%d,%d)", m, i, j)
			}
		}
	}
}

// ---- HLLC flux -------------------------------------------------------------

func TestHLLCConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Primitive{
			Rho:  0.1 + rng.Float64()*5,
			U:    rng.Float64()*10 - 5,
			V:    rng.Float64()*10 - 5,
			P:    0.1 + rng.Float64()*5,
			Zeta: rng.Float64(),
		}
		fh := HLLCFlux(gas, w, w)
		fa := gas.FluxX(w)
		for k := 0; k < NumComp; k++ {
			if !almost(fh[k], fa[k], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHLLCResolvesStationaryContact(t *testing.T) {
	// HLLC (unlike HLL) keeps a stationary contact exact: zero mass flux.
	l := Primitive{Rho: 1, U: 0, P: 1, Zeta: 0}
	r := Primitive{Rho: 0.2, U: 0, P: 1, Zeta: 1}
	f := HLLCFlux(gas, l, r)
	if math.Abs(f[IRho]) > 1e-12 {
		t.Errorf("mass flux on contact = %v", f[IRho])
	}
	if math.Abs(f[IMx]-1) > 1e-12 { // pressure flux only
		t.Errorf("momentum flux = %v, want p = 1", f[IMx])
	}
}

func TestHLLCSupersonicUpwinding(t *testing.T) {
	l := Primitive{Rho: 1, U: 10, P: 1, Zeta: 0.3}
	r := Primitive{Rho: 5, U: 10, P: 9, Zeta: 0.9}
	fh := HLLCFlux(gas, l, r)
	fa := gas.FluxX(l)
	for k := 0; k < NumComp; k++ {
		if !almost(fh[k], fa[k], 1e-9) {
			t.Errorf("flux[%d] = %v, want %v", k, fh[k], fa[k])
		}
	}
}

func TestHLLCSodTube(t *testing.T) {
	nx, ny := 200, 4
	_, d := onePatch(nx, ny)
	dx := 1.0 / float64(nx)
	pd := d.LocalPatches(0)[0]
	l, r := sodStates()
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			x := (float64(i) + 0.5) * dx
			if x < 0.5 {
				setPrim(pd, i, j, l)
			} else {
				setPrim(pd, i, j, r)
			}
		}
	}
	s := NewSolver(1.4, HLLCFlux)
	tEnd, tNow := 0.2, 0.0
	for tNow < tEnd {
		dt := s.StableDt(pd, dx, dx)
		if tNow+dt > tEnd {
			dt = tEnd - tNow
		}
		heunStep(s, d, dt, dx, dx)
		tNow += dt
	}
	sol := SolveRiemann(gas, l, r)
	var l1 float64
	j := (b.Lo[1] + b.Hi[1]) / 2
	for i := b.Lo[0]; i <= b.Hi[0]; i++ {
		x := (float64(i) + 0.5) * dx
		exact := SampleRiemann(gas, l, r, sol, (x-0.5)/tEnd)
		got := s.primAt(pd, i, j)
		l1 += math.Abs(got.Rho-exact.Rho) * dx
	}
	if l1 > 0.02 {
		t.Errorf("HLLC Sod L1 error = %v", l1)
	}
}
