// Package transport evaluates gas-phase transport properties —
// mixture-averaged diffusion coefficients, thermal conductivity, and
// viscosity — from kinetic theory with Lennard-Jones parameters and
// Neufeld collision-integral fits. It is the stand-in for the DRFM
// package the paper wraps into its DRFMComponent: same physical model
// class (Chapman–Enskog with mixture averaging), pure Go.
package transport

import (
	"fmt"
	"math"

	"ccahydro/internal/chem"
)

// Boltzmann constant (J/K) and Avogadro number (1/mol).
const (
	kB = 1.380649e-23
	nA = 6.02214076e23
)

// LJ holds Lennard-Jones parameters: sigma in meters, epsilon/kB in K.
type LJ struct {
	Sigma    float64
	EpsOverK float64
}

// ljData maps species names to Lennard-Jones parameters (from the
// standard Chemkin transport database; sigma given in Angstrom here
// and converted below).
var ljData = map[string]struct {
	sigmaA float64
	epsK   float64
}{
	"H2":   {2.920, 38.0},
	"O2":   {3.458, 107.4},
	"H2O":  {2.605, 572.4},
	"OH":   {2.750, 80.0},
	"H":    {2.050, 145.0},
	"O":    {2.750, 80.0},
	"HO2":  {3.458, 107.4},
	"H2O2": {3.458, 107.4},
	"N2":   {3.621, 97.53},
	"CO":   {3.650, 98.1},
	"CO2":  {3.763, 244.0},
	"HCO":  {3.590, 498.0},
}

// maxSpecies bounds the species count of a Model: the per-call
// collision-integral buffers live on the stack at this size. New panics
// above it.
const maxSpecies = 16

// maxPairs is the number of unordered species pairs j < k at maxSpecies,
// the most pair classes a Model can have.
const maxPairs = maxSpecies * (maxSpecies - 1) / 2

// Model evaluates transport properties for one mechanism. It is
// read-only after New, so one Model serves any number of goroutines.
type Model struct {
	mech *chem.Mechanism
	lj   []LJ
	// mass is per-molecule mass in kg.
	mass []float64
	// Precomputed binary pair parameters.
	sigmaJK [][]float64
	epsJK   [][]float64
	mJK     [][]float64 // reduced mass

	// Collision-integral classes: pairs j < k in MixtureDiffusion's
	// loop order (j ascending, then k ascending) by ε_jk for Ω(1,1),
	// species by ε_k for Ω(2,2).
	pairs, species classes
}

// classes groups values by exact float64 equality. The reduced
// collision integrals are pure functions of T/ε, so one evaluation per
// class gives every member the very bits its own evaluation would.
type classes struct {
	eps []float64 // the distinct values, in order of first appearance
	of  []int     // of[i] indexes eps for member i
}

// add appends a member with value eps.
func (c *classes) add(eps float64) {
	for i, e := range c.eps {
		if e == eps {
			c.of = append(c.of, i)
			return
		}
	}
	c.of = append(c.of, len(c.eps))
	c.eps = append(c.eps, eps)
}

// New builds a transport model; unknown species fall back to N2-like
// parameters. It panics if the mechanism has more than maxSpecies
// species.
func New(m *chem.Mechanism) *Model {
	n := m.NumSpecies()
	if n > maxSpecies {
		panic(fmt.Sprintf("transport: mechanism %s has %d species, more than maxSpecies = %d",
			m.Name, n, maxSpecies))
	}
	t := &Model{
		mech: m,
		lj:   make([]LJ, n),
		mass: make([]float64, n),
	}
	for i, sp := range m.Species {
		d, ok := ljData[sp.Name]
		if !ok {
			d = ljData["N2"]
		}
		t.lj[i] = LJ{Sigma: d.sigmaA * 1e-10, EpsOverK: d.epsK}
		t.mass[i] = sp.W / nA
	}
	t.sigmaJK = make([][]float64, n)
	t.epsJK = make([][]float64, n)
	t.mJK = make([][]float64, n)
	for j := 0; j < n; j++ {
		t.sigmaJK[j] = make([]float64, n)
		t.epsJK[j] = make([]float64, n)
		t.mJK[j] = make([]float64, n)
		for k := 0; k < n; k++ {
			t.sigmaJK[j][k] = 0.5 * (t.lj[j].Sigma + t.lj[k].Sigma)
			t.epsJK[j][k] = math.Sqrt(t.lj[j].EpsOverK * t.lj[k].EpsOverK)
			t.mJK[j][k] = t.mass[j] * t.mass[k] / (t.mass[j] + t.mass[k])
		}
	}
	nPairs := n * (n - 1) / 2
	t.pairs = classes{make([]float64, 0, nPairs), make([]int, 0, nPairs)}
	t.species = classes{make([]float64, 0, n), make([]int, 0, n)}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			t.pairs.add(t.epsJK[j][k])
		}
	}
	for k := 0; k < n; k++ {
		t.species.add(t.lj[k].EpsOverK)
	}
	return t
}

// Mechanism returns the mechanism the model was built for.
func (t *Model) Mechanism() *chem.Mechanism { return t.mech }

// omega11 is the Neufeld fit to the reduced collision integral
// Omega(1,1)*(T*), used for diffusion.
func omega11(tStar float64) float64 {
	return 1.06036/math.Pow(tStar, 0.15610) +
		0.19300/math.Exp(0.47635*tStar) +
		1.03587/math.Exp(1.52996*tStar) +
		1.76474/math.Exp(3.89411*tStar)
}

// omega22 is the Neufeld fit to Omega(2,2)*(T*), used for viscosity and
// conductivity.
func omega22(tStar float64) float64 {
	return 1.16145/math.Pow(tStar, 0.14874) +
		0.52487/math.Exp(0.77320*tStar) +
		2.16178/math.Exp(2.43787*tStar)
}

// BinaryDiffusion returns D_jk in m^2/s at (T, P) from Chapman–Enskog
// first order:
//
//	D_jk = 3/16 * sqrt(2 pi (kB T)^3 / m_jk) / (P pi sigma_jk^2 Omega11)
func (t *Model) BinaryDiffusion(j, k int, T, P float64) float64 {
	tStar := T / t.epsJK[j][k]
	s := t.sigmaJK[j][k]
	num := 3.0 / 16.0 * math.Sqrt(2*math.Pi*math.Pow(kB*T, 3)/t.mJK[j][k])
	den := P * math.Pi * s * s * omega11(tStar)
	return num / den
}

// viscosity returns the pure-species dynamic viscosity in Pa s, given
// om22 = Omega22(T/eps_k):
//
//	mu_k = 5/16 * sqrt(pi m_k kB T) / (pi sigma_k^2 Omega22)
func (t *Model) viscosity(k int, T, om22 float64) float64 {
	s := t.lj[k].Sigma
	return 5.0 / 16.0 * math.Sqrt(math.Pi*t.mass[k]*kB*T) / (math.Pi * s * s * om22)
}

// conductivity returns the pure-species thermal conductivity in
// W/(m K), given om22 = Omega22(T/eps_k), using the modified Eucken
// correction:
//
//	lambda_k = mu_k (cp_k + 5/4 R/W_k)
func (t *Model) conductivity(k int, T, om22 float64) float64 {
	sp := &t.mech.Species[k]
	return t.viscosity(k, T, om22) * (sp.CpMass(T) + 1.25*chem.R/sp.W)
}

// MixtureDiffusion fills D (length NumSpecies) with mixture-averaged
// diffusion coefficients in m^2/s:
//
//	D_i = (1 - Y_i) / Σ_{j≠i} X_j / D_ij
//
// For a species that is essentially the whole mixture the self-limit
// D_ii is used. X is mole fractions.
//
// Each unordered pair is evaluated once: D_ij is symmetric bit for bit
// (the pair tables are built from commutative +, * and sqrt(a*b)), and
// the T-only factor (kB T)^3 is hoisted out of the loop, so every D_ij
// is the same expression BinaryDiffusion evaluates. D itself is the
// accumulator. Pairs i < j run with i ascending outside and j ascending
// inside, so every D_i still receives its terms in ascending partner
// order, skipping i — the order of the per-row sum Σ_{j≠i} — and the
// result is bit-identical to summing BinaryDiffusion row by row. D must
// not alias X or Y.
//
// Omega11 is evaluated once per pair class, not once per pair: it is a
// pure function of T/ε_ij, and the pairs of a class share ε_ij bit for
// bit, so each pair reads the very value its own call would return
// (h2air: 17 evaluations for 36 pairs).
func (t *Model) MixtureDiffusion(T, P float64, X, Y, D []float64) {
	n := t.mech.NumSpecies()
	var omBuf [maxPairs]float64
	om := omBuf[:len(t.pairs.eps)]
	for c, eps := range t.pairs.eps {
		om[c] = omega11(T / eps)
	}
	kT3 := math.Pow(kB*T, 3)
	pPi := P * math.Pi
	D = D[:n]
	for i := range D {
		D[i] = 0
	}
	p := 0 // index of pair (i, j) in pairs.of
	for i := 0; i < n; i++ {
		sigma, m := t.sigmaJK[i], t.mJK[i]
		for j := i + 1; j < n; j++ {
			s := sigma[j]
			num := 3.0 / 16.0 * math.Sqrt(2*math.Pi*kT3/m[j])
			dij := num / (pPi * s * s * om[t.pairs.of[p]])
			p++
			D[i] += X[j] / dij
			D[j] += X[i] / dij
		}
		// Every partner of i has now contributed: j > i above, j < i
		// on the earlier rows.
		if D[i] < 1e-300 {
			D[i] = t.BinaryDiffusion(i, i, T, P)
			continue
		}
		D[i] = (1 - Y[i]) / D[i]
	}
}

// MixtureConductivity returns the mixture thermal conductivity from the
// Mathur combination rule: lambda = (Σ X λ + 1/Σ(X/λ)) / 2. Omega22 is
// evaluated once per species class, as in MixtureDiffusion.
func (t *Model) MixtureConductivity(T float64, X []float64) float64 {
	var om [maxSpecies]float64
	for c, eps := range t.species.eps {
		om[c] = omega22(T / eps)
	}
	var s1, s2 float64
	for k := range X {
		if X[k] <= 0 {
			continue
		}
		lam := t.conductivity(k, T, om[t.species.of[k]])
		s1 += X[k] * lam
		s2 += X[k] / lam
	}
	if s2 == 0 {
		return 0
	}
	return 0.5 * (s1 + 1/s2)
}

// Evaluate computes everything the flame solver needs at one state:
// mixture-averaged D_i, conductivity lambda, and density. Y is mass
// fractions; scratch X must have NumSpecies entries.
func (t *Model) Evaluate(T, P float64, Y, X, D []float64) (lambda, rho float64) {
	t.mech.MoleFractions(Y, X)
	t.MixtureDiffusion(T, P, X, Y, D)
	lambda = t.MixtureConductivity(T, X)
	rho = t.mech.Density(P, T, Y)
	return lambda, rho
}
