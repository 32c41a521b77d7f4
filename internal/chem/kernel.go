package chem

import "sync"

// Kernel is a generated, allocation-free chemistry kernel specialized
// to one mechanism: fully unrolled rate evaluation plus analytic
// Jacobians of the source terms (the chemgen output, following the
// ChemGen approach of emitting per-mechanism source instead of
// interpreting the Reaction tables).
//
// A Kernel must agree with the interpreted Mechanism of the same name
// to rounding accuracy; the Mechanism stays the definition (chemgen's
// input and the test oracle) while components evaluate the kernel they
// resolve here by mechanism name. Implementations are stateless
// (scratch lives on the stack), so a single Kernel value is safe for
// concurrent use.
type Kernel interface {
	// MechName is the canonical mechanism name (Mechanism.Name).
	MechName() string
	// NumSpecies returns the species count.
	NumSpecies() int
	// Concentrations converts (rho, Y) to molar concentrations.
	Concentrations(rho float64, Y, conc []float64)
	// ProductionRates fills wdot with net molar production rates at
	// (T, conc), like Mechanism.ProductionRates.
	ProductionRates(T float64, conc, wdot []float64)
	// ConstPressureSource fills dY and returns dT/dt at fixed pressure,
	// like Mechanism.ConstPressureSource (no workspace needed).
	ConstPressureSource(T, P float64, Y, dY []float64) float64
	// ConstVolumeSource fills dY and returns dT/dt at fixed density.
	ConstVolumeSource(T, rho float64, Y, dY []float64) float64
	// ConstPressureJacobian fills jac, row-major (n+1) x (n+1) over the
	// state [T, Y_0..Y_{n-1}], with the exact derivative of the
	// constant-pressure source (rho = rho(P, T, Y) eliminated).
	ConstPressureJacobian(T, P float64, Y, jac []float64)
	// ConstVolumeJacobian fills jac, row-major (n+1) x (n+1) over
	// [T, Y] at fixed rho. When drho is non-nil (length n+1) it also
	// receives the partial derivatives of [dT/dt, dY/dt] with respect
	// to rho, which callers embedding rho(state) need for the chain
	// rule (the 0D ignition modeler).
	ConstVolumeJacobian(T, rho float64, Y, jac, drho []float64)
}

var (
	kernelMu  sync.RWMutex
	kernelReg = map[string]Kernel{}
)

// RegisterKernel adds a generated kernel to the registry, keyed by its
// canonical mechanism name. Called from init functions of the
// generated package; re-registration replaces (last wins).
func RegisterKernel(k Kernel) {
	kernelMu.Lock()
	kernelReg[k.MechName()] = k
	kernelMu.Unlock()
}

// KernelFor returns the registered kernel for a canonical mechanism
// name, or nil when none is registered (go generate ./internal/chem/...
// has not been run for it).
func KernelFor(name string) Kernel {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return kernelReg[name]
}

// RigidVesselJac builds an analytic Jacobian evaluator for the 0D
// rigid-vessel (constant mass and volume) ignition system over the
// state z = [T, Y_0..Y_{n-1}, P]: constant-volume chemistry with the
// density recovered from the instantaneous state, rho = P/(R T s),
// s = Σ Y_j/W_j, and the pressure equation dP/dt = R rho (f_T s + T d),
// d = Σ f_{Y_j}/W_j (Mechanism.DPDt).
//
// The kernel supplies the fixed-rho Jacobian plus the ∂/∂rho column;
// this closure applies the density chain rule and differentiates the
// pressure row in terms of the already-assembled temperature and
// species rows. Temperatures below 200 K are clamped, mirroring the
// drivers' cold-transient guard on the RHS.
//
// Each call returns an independent closure with private scratch, so
// concurrent solvers may each hold their own.
func RigidVesselJac(k Kernel, m *Mechanism) func(t float64, y, jac []float64) {
	n := m.NumSpecies()
	dim := n + 2
	sub := make([]float64, (n+1)*(n+1))
	drho := make([]float64, n+1)
	f := make([]float64, n+1)
	invW := make([]float64, n)
	for i := range m.Species {
		invW[i] = 1 / m.Species[i].W
	}
	return func(_ float64, y, jac []float64) {
		T := y[0]
		if T < 200 {
			T = 200
		}
		Y := y[1 : 1+n]
		P := y[1+n]
		var s float64
		for i, yi := range Y {
			s += yi * invW[i]
		}
		rho := P / (R * T * s)
		f[0] = k.ConstVolumeSource(T, rho, Y, f[1:])
		k.ConstVolumeJacobian(T, rho, Y, sub, drho)
		drdT := -rho / T
		drdP := rho / P
		// Temperature and species rows: fixed-rho derivative plus the
		// density chain (∂rho/∂Y_k = -rho/(W_k s)).
		for r := 0; r <= n; r++ {
			row := jac[r*dim : r*dim+dim]
			srow := sub[r*(n+1) : r*(n+1)+n+1]
			row[0] = srow[0] + drho[r]*drdT
			for c := 0; c < n; c++ {
				row[1+c] = srow[1+c] - drho[r]*rho*invW[c]/s
			}
			row[1+n] = drho[r] * drdP
		}
		// Pressure row, via the total rows assembled above.
		var d float64
		for j := 0; j < n; j++ {
			d += f[1+j] * invW[j]
		}
		A := f[0]*s + T*d
		dAdT := jac[0]*s + d
		dAdP := jac[n+1] * s
		for j := 0; j < n; j++ {
			dAdT += T * jac[(1+j)*dim] * invW[j]
			dAdP += T * jac[(1+j)*dim+1+n] * invW[j]
		}
		prow := jac[(1+n)*dim : (1+n)*dim+dim]
		prow[0] = R * (drdT*A + rho*dAdT)
		for c := 0; c < n; c++ {
			dAdYc := jac[1+c]*s + f[0]*invW[c]
			for j := 0; j < n; j++ {
				dAdYc += T * jac[(1+j)*dim+1+c] * invW[j]
			}
			prow[1+c] = R * (-rho*invW[c]/s*A + rho*dAdYc)
		}
		prow[1+n] = R * (drdP*A + rho*dAdP)
	}
}
