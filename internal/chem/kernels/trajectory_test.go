package kernels

import (
	"math"
	"testing"

	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"
)

// ignite integrates one ignition trajectory from T0 = 1000 K, 1 atm
// (stoichiometric H2-air seeded with 1e-6 H, which the lite mechanism
// needs to start) to 1 ms. rhs works over z = [T, Y..., P] for the
// rigid vessel or z = [T, Y...] at constant pressure; jac nil selects
// cvode's finite-difference sweep. It returns the ignition delay (the
// T0+400 K crossing, interpolated between accepted steps), the final
// state and the solver statistics.
func ignite(t *testing.T, m *chem.Mechanism, dim int, rhs cvode.RHS, jac cvode.Jac) (float64, []float64, cvode.Stats) {
	t.Helper()
	const T0, tEnd = 1000.0, 1e-3
	y0 := make([]float64, dim)
	y0[0] = T0
	Y := m.StoichiometricH2Air()
	Y[m.SpeciesIndex("H")] = 1e-6
	chem.NormalizeY(Y)
	copy(y0[1:], Y)
	if dim == m.NumSpecies()+2 {
		y0[dim-1] = chem.PAtm
	}
	s := cvode.New(dim, rhs, cvode.Options{RelTol: 1e-8, AbsTol: 1e-12, Jac: jac})
	s.Init(0, y0)
	tIgn := math.NaN()
	for math.IsNaN(tIgn) && s.T() < tEnd {
		t0, T := s.T(), s.Y()[0]
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if T1 := s.Y()[0]; T1 >= T0+400 {
			tIgn = t0 + (s.T()-t0)*(T0+400-T)/(T1-T)
		}
	}
	if math.IsNaN(tIgn) || s.T() > tEnd {
		t.Fatalf("no ignition before %g s", tEnd)
	}
	if err := s.Integrate(tEnd); err != nil {
		t.Fatal(err)
	}
	return tIgn, append([]float64(nil), s.Y()...), s.Stats()
}

// TestTrajectoryKernelVsInterpreted is the engine oracle: for every
// mechanism, in both the constant-volume rigid-vessel form and the
// constant-pressure form, cvode driven by the interpreted Reaction
// tables with finite-difference Jacobians and by the generated kernel
// with its analytic Jacobian must tell the same physics story. The two
// take different step sequences, so the check is on the physical
// invariants: ignition delay within 1 %, final T within 1 K and (rigid
// vessel) final P within 1e-3 relative.
func TestTrajectoryKernelVsInterpreted(t *testing.T) {
	for _, m := range chem.AllMechanisms() {
		k := chem.KernelFor(m.Name)
		ws := chem.NewSourceWorkspace(m)
		n := m.NumSpecies()
		rigid := func(src func(T, rho float64, Y, dY []float64) float64) cvode.RHS {
			return func(_ float64, z, f []float64) {
				rho := m.Density(z[1+n], z[0], z[1:1+n])
				f[0] = src(z[0], rho, z[1:1+n], f[1:1+n])
				f[1+n] = m.DPDt(rho, z[0], f[0], z[1:1+n], f[1:1+n])
			}
		}
		isobaric := func(src func(T, P float64, Y, dY []float64) float64) cvode.RHS {
			return func(_ float64, z, f []float64) { f[0] = src(z[0], chem.PAtm, z[1:], f[1:]) }
		}
		forms := []struct {
			name         string
			dim          int
			interp, kern cvode.RHS
			jac          cvode.Jac
		}{
			{"rigid", n + 2,
				rigid(func(T, rho float64, Y, dY []float64) float64 { return m.ConstVolumeSource(T, rho, Y, dY, ws) }),
				rigid(k.ConstVolumeSource), chem.RigidVesselJac(k, m)},
			{"isobaric", n + 1,
				isobaric(func(T, P float64, Y, dY []float64) float64 { return m.ConstPressureSource(T, P, Y, dY, ws) }),
				isobaric(k.ConstPressureSource),
				func(_ float64, z, jac []float64) { k.ConstPressureJacobian(z[0], chem.PAtm, z[1:], jac) }},
		}
		for _, fm := range forms {
			t.Run(m.Name+"/"+fm.name, func(t *testing.T) {
				ti, yi, sti := ignite(t, m, fm.dim, fm.interp, nil)
				tk, yk, stk := ignite(t, m, fm.dim, fm.kern, fm.jac)
				if sti.JacBuildsAnalytic != 0 || stk.JacBuildsFD != 0 || stk.JacBuildsAnalytic == 0 {
					t.Errorf("Jacobian sources: interpreted analytic=%d, kernel fd=%d analytic=%d",
						sti.JacBuildsAnalytic, stk.JacBuildsFD, stk.JacBuildsAnalytic)
				}
				t.Logf("delay %g / %g s, final T %g / %g K (kernel / interpreted)", tk, ti, yk[0], yi[0])
				if rel := math.Abs(tk-ti) / ti; rel > 1e-2 {
					t.Errorf("ignition delay: kernel %g, interpreted %g (rel diff %g)", tk, ti, rel)
				}
				if d := math.Abs(yk[0] - yi[0]); d > 1 {
					t.Errorf("final T: kernel %g, interpreted %g", yk[0], yi[0])
				}
				if p := fm.dim - 1; fm.name == "rigid" && math.Abs(yk[p]-yi[p])/yi[p] > 1e-3 {
					t.Errorf("final P: kernel %g, interpreted %g", yk[p], yi[p])
				}
			})
		}
	}
}
