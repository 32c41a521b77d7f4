package euler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccahydro/internal/amr"
	"ccahydro/internal/field"
)

func almost(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))+1e-14
}

var gas = Gas{Gamma: 1.4}

// ---- state conversions ----------------------------------------------------

func TestPrimitiveConservedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Primitive{
			Rho:  0.1 + rng.Float64()*10,
			U:    rng.Float64()*20 - 10,
			V:    rng.Float64()*20 - 10,
			P:    0.1 + rng.Float64()*10,
			Zeta: rng.Float64(),
		}
		u := gas.ToConserved(w)
		w2 := gas.ToPrimitive(u)
		return almost(w.Rho, w2.Rho, 1e-12) && almost(w.U, w2.U, 1e-12) &&
			almost(w.V, w2.V, 1e-12) && almost(w.P, w2.P, 1e-12) &&
			almost(w.Zeta, w2.Zeta, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoundSpeedAir(t *testing.T) {
	// Air at rho=1.2, p=101325: c ≈ 343.7 m/s.
	w := Primitive{Rho: 1.2, P: 101325}
	if c := gas.SoundSpeed(w); !almost(c, 343.7, 0.01) {
		t.Errorf("c = %v", c)
	}
}

func TestPressureFloor(t *testing.T) {
	u := Conserved{1, 10, 0, 1, 0} // kinetic energy exceeds total
	w := gas.ToPrimitive(u)
	if w.P <= 0 {
		t.Errorf("p = %v, want floored positive", w.P)
	}
}

// ---- exact Riemann solver --------------------------------------------------

func sodStates() (Primitive, Primitive) {
	return Primitive{Rho: 1, U: 0, P: 1, Zeta: 0},
		Primitive{Rho: 0.125, U: 0, P: 0.1, Zeta: 1}
}

func TestRiemannSod(t *testing.T) {
	l, r := sodStates()
	sol := SolveRiemann(gas, l, r)
	if !almost(sol.PStar, 0.30313, 1e-4) {
		t.Errorf("p* = %v, want 0.30313", sol.PStar)
	}
	if !almost(sol.UStar, 0.92745, 1e-4) {
		t.Errorf("u* = %v, want 0.92745", sol.UStar)
	}
}

func TestRiemannSymmetric(t *testing.T) {
	// Two identical states: star = state, flux = analytic flux.
	w := Primitive{Rho: 1.5, U: 2, V: -1, P: 3, Zeta: 0.25}
	sol := SolveRiemann(gas, w, w)
	if !almost(sol.PStar, w.P, 1e-9) || !almost(sol.UStar, w.U, 1e-9) {
		t.Errorf("star = %v %v", sol.PStar, sol.UStar)
	}
	f := GodunovFlux(gas, w, w)
	exact := gas.FluxX(w)
	for k := 0; k < NumComp; k++ {
		if !almost(f[k], exact[k], 1e-9) {
			t.Errorf("flux[%d] = %v, want %v", k, f[k], exact[k])
		}
	}
}

func TestRiemannStrongShock(t *testing.T) {
	// High pressure ratio: solver must converge and give p* between.
	l := Primitive{Rho: 1, U: 0, P: 1000}
	r := Primitive{Rho: 1, U: 0, P: 0.01}
	sol := SolveRiemann(gas, l, r)
	if sol.PStar <= r.P || sol.PStar >= l.P {
		t.Errorf("p* = %v not between states", sol.PStar)
	}
	if sol.UStar <= 0 {
		t.Errorf("u* = %v, expansion must push right", sol.UStar)
	}
}

func TestRiemannVacuumGuard(t *testing.T) {
	// Strong receding flows: star pressure must stay positive.
	l := Primitive{Rho: 1, U: -5, P: 0.4}
	r := Primitive{Rho: 1, U: 5, P: 0.4}
	sol := SolveRiemann(gas, l, r)
	if sol.PStar <= 0 || math.IsNaN(sol.PStar) {
		t.Errorf("p* = %v", sol.PStar)
	}
}

func TestSampleRiemannContactSidesZeta(t *testing.T) {
	l, r := sodStates()
	sol := SolveRiemann(gas, l, r)
	// Left of contact: zeta from left (0); right: from right (1).
	wl := SampleRiemann(gas, l, r, sol, sol.UStar-0.01)
	wr := SampleRiemann(gas, l, r, sol, sol.UStar+0.01)
	if wl.Zeta != 0 || wr.Zeta != 1 {
		t.Errorf("zeta across contact: %v %v", wl.Zeta, wr.Zeta)
	}
	// Pressure continuous across contact.
	if !almost(wl.P, wr.P, 1e-9) {
		t.Errorf("pressure jump across contact: %v vs %v", wl.P, wr.P)
	}
}

func TestSampleRiemannFarField(t *testing.T) {
	l, r := sodStates()
	sol := SolveRiemann(gas, l, r)
	wl := SampleRiemann(gas, l, r, sol, -10)
	wr := SampleRiemann(gas, l, r, sol, 10)
	if wl != l || wr != r {
		t.Error("far-field sampling must return the inputs")
	}
}

// ---- EFM -------------------------------------------------------------------

func TestEFMConsistency(t *testing.T) {
	// Equal states: EFM must reduce to the analytic flux.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Primitive{
			Rho:  0.1 + rng.Float64()*5,
			U:    rng.Float64()*10 - 5,
			V:    rng.Float64()*10 - 5,
			P:    0.1 + rng.Float64()*5,
			Zeta: rng.Float64(),
		}
		fe := EFMFlux(gas, w, w)
		fa := gas.FluxX(w)
		for k := 0; k < NumComp; k++ {
			if !almost(fe[k], fa[k], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEFMUpwinding(t *testing.T) {
	// Supersonic left-to-right flow: the flux must equal the left
	// state's flux (all molecules cross from the left).
	l := Primitive{Rho: 1, U: 10, P: 1, Zeta: 0.3} // M ≈ 8.5
	r := Primitive{Rho: 5, U: 10, P: 9, Zeta: 0.9}
	fe := EFMFlux(gas, l, r)
	fa := gas.FluxX(l)
	for k := 0; k < NumComp; k++ {
		if !almost(fe[k], fa[k], 1e-6) {
			t.Errorf("flux[%d] = %v, want %v", k, fe[k], fa[k])
		}
	}
}

func TestEFMMoreDiffusiveThanGodunov(t *testing.T) {
	// On a stationary contact, Godunov is exact (zero mass flux);
	// EFM leaks mass — the diffusivity the paper accepts for stability.
	l := Primitive{Rho: 1, U: 0, P: 1}
	r := Primitive{Rho: 0.2, U: 0, P: 1}
	fg := GodunovFlux(gas, l, r)
	fe := EFMFlux(gas, l, r)
	if math.Abs(fg[IRho]) > 1e-12 {
		t.Errorf("godunov mass flux on contact = %v", fg[IRho])
	}
	if math.Abs(fe[IRho]) < 1e-6 {
		t.Errorf("efm mass flux = %v, expected diffusive", fe[IRho])
	}
}

// ---- limiters ---------------------------------------------------------------

func TestLimiters(t *testing.T) {
	if MinMod(1, 2) != 1 || MinMod(-3, -2) != -2 || MinMod(1, -1) != 0 {
		t.Error("minmod wrong")
	}
	if MC(1, 1) != 1 || MC(1, -1) != 0 {
		t.Error("mc wrong")
	}
	// MC caps at 2*min.
	if MC(1, 10) != 2 {
		t.Errorf("MC(1,10) = %v", MC(1, 10))
	}
	if FirstOrder(5, 5) != 0 {
		t.Error("first order must return zero slope")
	}
}

// ---- patch-level solver ------------------------------------------------------

// onePatch builds a single-patch hierarchy with 2 ghost cells.
func onePatch(nx, ny int) (*amr.Hierarchy, *field.DataObject) {
	h := amr.NewHierarchy(amr.NewBox(0, 0, nx-1, ny-1), 2, 1, 1)
	d := field.New("U", h, NumComp, 2, nil)
	return h, d
}

func setPrim(pd *field.PatchData, i, j int, w Primitive) {
	u := gas.ToConserved(w)
	for k := 0; k < NumComp; k++ {
		pd.Set(k, i, j, u[k])
	}
}

// eulerBCs: outflow everywhere (quasi-1D tests).
var outflowBC = field.UniformBC(field.BCSpec{Kind: field.BCOutflow})

// heunStep advances one RK2 (Heun) step on a serial single-patch setup.
func heunStep(s *Solver, d *field.DataObject, dt, dx, dy float64) {
	pd := d.LocalPatches(0)[0]
	h := d.Hierarchy()
	_ = h
	rhs := field.NewPatchData(pd.Patch, NumComp, 2)
	tmp := field.NewPatchData(pd.Patch, NumComp, 2)

	d.ApplyPhysicalBCs(0, outflowBC)
	s.RHSRegion(pd, rhs, pd.Interior(), dx, dy)
	b := pd.Interior()
	for k := 0; k < NumComp; k++ {
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				tmp.Set(k, i, j, pd.At(k, i, j)+dt*rhs.At(k, i, j))
			}
		}
	}
	// Stage 2 on tmp (needs its own BC fill: copy tmp into pd ghosts
	// via a scratch object sharing the patch).
	tmpObj := *d
	_ = tmpObj
	// Apply BCs manually on tmp by reusing the field helper through a
	// temporary DataObject is heavyweight; instead copy interior into
	// pd, fill BCs, compute RHS, then combine.
	save := field.NewPatchData(pd.Patch, NumComp, 2)
	save.CopyRegion(pd, pd.GrownBox())
	pd.CopyRegion(tmp, b)
	d.ApplyPhysicalBCs(0, outflowBC)
	s.RHSRegion(pd, rhs, pd.Interior(), dx, dy)
	for k := 0; k < NumComp; k++ {
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				un := 0.5*save.At(k, i, j) + 0.5*(pd.At(k, i, j)+dt*rhs.At(k, i, j))
				pd.Set(k, i, j, un)
			}
		}
	}
}

func TestSodShockTube(t *testing.T) {
	nx, ny := 200, 4
	_, d := onePatch(nx, ny)
	dx := 1.0 / float64(nx)
	dy := dx
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
	s := NewSolver(1.4, GodunovFlux)
	tEnd := 0.2
	tNow := 0.0
	for tNow < tEnd {
		dt := s.StableDt(pd, dx, dy)
		if tNow+dt > tEnd {
			dt = tEnd - tNow
		}
		heunStep(s, d, dt, dx, dy)
		tNow += dt
	}
	// Compare density against the exact solution.
	sol := SolveRiemann(gas, l, r)
	var l1 float64
	j := (b.Lo[1] + b.Hi[1]) / 2
	for i := b.Lo[0]; i <= b.Hi[0]; i++ {
		x := (float64(i) + 0.5) * dx
		exact := SampleRiemann(gas, l, r, sol, (x-0.5)/tEnd)
		got := s.primAt(pd, i, j)
		l1 += math.Abs(got.Rho-exact.Rho) * dx
	}
	if l1 > 0.015 {
		t.Errorf("Sod density L1 error = %v, want < 0.015", l1)
	}
}

func TestSodWithEFM(t *testing.T) {
	// Same tube with the EFM flux: should still converge, slightly more
	// diffusive (larger but bounded L1 error).
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
	s := NewSolver(1.4, EFMFlux)
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
	if l1 > 0.03 {
		t.Errorf("EFM Sod L1 error = %v", l1)
	}
}

func TestUniformFlowIsSteady(t *testing.T) {
	// A uniform state must produce exactly zero RHS.
	_, d := onePatch(16, 16)
	pd := d.LocalPatches(0)[0]
	w := Primitive{Rho: 1.3, U: 0.7, V: -0.4, P: 2.1, Zeta: 0.5}
	g := pd.GrownBox()
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			setPrim(pd, i, j, w)
		}
	}
	s := NewSolver(1.4, GodunovFlux)
	rhs := field.NewPatchData(pd.Patch, NumComp, 2)
	s.RHSRegion(pd, rhs, pd.Interior(), 0.01, 0.01)
	b := pd.Interior()
	for k := 0; k < NumComp; k++ {
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				if math.Abs(rhs.At(k, i, j)) > 1e-8 {
					t.Fatalf("rhs[%d](%d,%d) = %v", k, i, j, rhs.At(k, i, j))
				}
			}
		}
	}
}

func TestConservationUnderRK2(t *testing.T) {
	// With periodic-like symmetric interior and outflow BCs not yet
	// reached, total mass/momentum/energy changes only through the
	// boundary; confine the disturbance to the middle so totals are
	// conserved to round-off over a short time.
	nx := 64
	_, d := onePatch(nx, nx)
	dx := 1.0 / float64(nx)
	pd := d.LocalPatches(0)[0]
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			x := (float64(i)+0.5)*dx - 0.5
			y := (float64(j)+0.5)*dx - 0.5
			p := 1 + 0.1*math.Exp(-((x*x+y*y)/0.005))
			setPrim(pd, i, j, Primitive{Rho: 1, P: p, Zeta: 0.5})
		}
	}
	total := func(k int) float64 {
		var s float64
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				s += pd.At(k, i, j)
			}
		}
		return s
	}
	m0, e0 := total(IRho), total(IE)
	s := NewSolver(1.4, GodunovFlux)
	for step := 0; step < 5; step++ {
		dt := s.StableDt(pd, dx, dx)
		heunStep(s, d, dt, dx, dx)
	}
	if !almost(total(IRho), m0, 1e-10) {
		t.Errorf("mass drift: %v -> %v", m0, total(IRho))
	}
	if !almost(total(IE), e0, 1e-10) {
		t.Errorf("energy drift: %v -> %v", e0, total(IE))
	}
}

func TestStableDtScalesWithMesh(t *testing.T) {
	_, d := onePatch(16, 16)
	pd := d.LocalPatches(0)[0]
	g := pd.GrownBox()
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			setPrim(pd, i, j, Primitive{Rho: 1, P: 1})
		}
	}
	s := NewSolver(1.4, GodunovFlux)
	dt1 := s.StableDt(pd, 0.01, 0.01)
	dt2 := s.StableDt(pd, 0.005, 0.005)
	if !almost(dt1, 2*dt2, 1e-9) {
		t.Errorf("dt does not scale linearly with dx: %v vs %v", dt1, 2*dt2)
	}
}

func TestCirculationRigidRotation(t *testing.T) {
	// u = -Ω y, v = Ω x: vorticity 2Ω everywhere. With zeta = 0.5 in a
	// band, Γ over that band = 2Ω × band area.
	nx := 32
	_, d := onePatch(nx, nx)
	dx := 1.0 / float64(nx)
	pd := d.LocalPatches(0)[0]
	om := 3.0
	g := pd.GrownBox()
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			x := (float64(i) + 0.5) * dx
			y := (float64(j) + 0.5) * dx
			zeta := 0.0
			if x > 0.25 && x < 0.75 {
				zeta = 0.5
			}
			setPrim(pd, i, j, Primitive{Rho: 1, U: -om * y, V: om * x, P: 10, Zeta: zeta})
		}
	}
	s := NewSolver(1.4, GodunovFlux)
	gamma := s.Circulation(pd, dx, dx, 0.001, 0.999)
	// Band is half the domain area (0.5), vorticity 2Ω.
	want := 2 * om * 0.5
	if !almost(gamma, want, 0.05) {
		t.Errorf("circulation = %v, want %v", gamma, want)
	}
}
