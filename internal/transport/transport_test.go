package transport

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ccahydro/internal/chem"
)

func almost(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

func TestViscosityKnownValues(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	// N2 at 300 K: mu ≈ 1.78e-5 Pa s.
	if mu := tr.Viscosity(m.SpeciesIndex("N2"), 300); !almost(mu, 1.78e-5, 0.05) {
		t.Errorf("mu_N2(300) = %v", mu)
	}
	// O2 at 300 K: mu ≈ 2.07e-5 Pa s.
	if mu := tr.Viscosity(m.SpeciesIndex("O2"), 300); !almost(mu, 2.07e-5, 0.06) {
		t.Errorf("mu_O2(300) = %v", mu)
	}
	// H2 at 300 K: mu ≈ 0.89e-5 Pa s.
	if mu := tr.Viscosity(m.SpeciesIndex("H2"), 300); !almost(mu, 0.89e-5, 0.06) {
		t.Errorf("mu_H2(300) = %v", mu)
	}
}

func TestConductivityKnownValues(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	// N2 at 300 K: lambda ≈ 0.026 W/m/K.
	if lam := tr.Conductivity(m.SpeciesIndex("N2"), 300); !almost(lam, 0.026, 0.10) {
		t.Errorf("lambda_N2(300) = %v", lam)
	}
	// H2 at 300 K: lambda ≈ 0.18 W/m/K (very conductive).
	if lam := tr.Conductivity(m.SpeciesIndex("H2"), 300); !almost(lam, 0.18, 0.15) {
		t.Errorf("lambda_H2(300) = %v", lam)
	}
}

func TestBinaryDiffusionKnownValue(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	// H2-N2 at 300 K, 1 atm: D ≈ 0.78 cm^2/s = 7.8e-5 m^2/s.
	d := tr.BinaryDiffusion(m.SpeciesIndex("H2"), m.SpeciesIndex("N2"), 300, chem.PAtm)
	if !almost(d, 7.8e-5, 0.12) {
		t.Errorf("D_H2,N2(300) = %v", d)
	}
	// O2-N2 at 300 K: D ≈ 0.21 cm^2/s.
	d2 := tr.BinaryDiffusion(m.SpeciesIndex("O2"), m.SpeciesIndex("N2"), 300, chem.PAtm)
	if !almost(d2, 2.1e-5, 0.12) {
		t.Errorf("D_O2,N2(300) = %v", d2)
	}
}

func TestBinaryDiffusionSymmetry(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	f := func(jRaw, kRaw uint8, tRaw uint16) bool {
		j := int(jRaw) % m.NumSpecies()
		k := int(kRaw) % m.NumSpecies()
		T := 300 + float64(tRaw%2200)
		djk := tr.BinaryDiffusion(j, k, T, chem.PAtm)
		dkj := tr.BinaryDiffusion(k, j, T, chem.PAtm)
		return almost(djk, dkj, 1e-12) && djk > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDiffusionScalings(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	j, k := m.SpeciesIndex("O2"), m.SpeciesIndex("N2")
	// D ~ 1/P at fixed T.
	d1 := tr.BinaryDiffusion(j, k, 400, chem.PAtm)
	d2 := tr.BinaryDiffusion(j, k, 400, 2*chem.PAtm)
	if !almost(d1, 2*d2, 1e-12) {
		t.Errorf("pressure scaling: %v vs %v", d1, 2*d2)
	}
	// D grows faster than T^1.5 (collision integral decreases).
	d300 := tr.BinaryDiffusion(j, k, 300, chem.PAtm)
	d600 := tr.BinaryDiffusion(j, k, 600, chem.PAtm)
	if d600/d300 < math.Pow(2, 1.5) {
		t.Errorf("temperature scaling = %v, want > %v", d600/d300, math.Pow(2, 1.5))
	}
}

func TestMixtureDiffusionAirLike(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	n := m.NumSpecies()
	X := make([]float64, n)
	D := make([]float64, n)
	m.MoleFractions(Y, X)
	tr.MixtureDiffusion(300, chem.PAtm, X, Y, D)
	// H2 diffuses much faster than O2 in the mixture.
	if D[m.SpeciesIndex("H2")] < 2*D[m.SpeciesIndex("O2")] {
		t.Errorf("D_H2 = %v, D_O2 = %v", D[m.SpeciesIndex("H2")], D[m.SpeciesIndex("O2")])
	}
	for i, d := range D {
		if d <= 0 || math.IsNaN(d) {
			t.Errorf("D[%d] = %v", i, d)
		}
	}
}

func TestMixtureDiffusionSelfLimit(t *testing.T) {
	// Pure N2: the mixture formula degenerates; self-diffusion is used.
	m := chem.H2Air()
	tr := New(m)
	n := m.NumSpecies()
	Y := make([]float64, n)
	Y[m.SpeciesIndex("N2")] = 1
	X := make([]float64, n)
	D := make([]float64, n)
	m.MoleFractions(Y, X)
	tr.MixtureDiffusion(300, chem.PAtm, X, Y, D)
	dn2 := D[m.SpeciesIndex("N2")]
	if dn2 <= 0 || math.IsNaN(dn2) {
		t.Errorf("self-limit D_N2 = %v", dn2)
	}
}

func TestMixtureConductivityBounds(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	X := make([]float64, m.NumSpecies())
	m.MoleFractions(Y, X)
	lam := tr.MixtureConductivity(300, X)
	// Must lie between the N2 and H2 pure values.
	lamN2 := tr.Conductivity(m.SpeciesIndex("N2"), 300)
	lamH2 := tr.Conductivity(m.SpeciesIndex("H2"), 300)
	if lam < lamN2 || lam > lamH2 {
		t.Errorf("lambda_mix = %v outside [%v, %v]", lam, lamN2, lamH2)
	}
}

func TestEvaluate(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	n := m.NumSpecies()
	X := make([]float64, n)
	D := make([]float64, n)
	lam, rho := tr.Evaluate(1000, chem.PAtm, Y, X, D)
	if lam <= 0 || rho <= 0 {
		t.Errorf("lambda = %v, rho = %v", lam, rho)
	}
	if !almost(rho, m.Density(chem.PAtm, 1000, Y), 1e-12) {
		t.Error("rho inconsistent with mechanism density")
	}
	// Thermal diffusivity alpha = lam/(rho cp) should be same order as
	// species diffusivities (Lewis ~ 1 for N2-dominated mixtures).
	alpha := lam / (rho * m.CpMass(1000, Y))
	dn2 := D[m.SpeciesIndex("N2")]
	if alpha/dn2 < 0.3 || alpha/dn2 > 3.5 {
		t.Errorf("Lewis-like ratio = %v", alpha/dn2)
	}
}

// Property: transport coefficients are positive, finite, and increase
// with temperature over flame-relevant ranges.
func TestTransportMonotoneInT(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(m.NumSpecies())
		T := 300 + 2000*rng.Float64()
		mu1, mu2 := tr.Viscosity(k, T), tr.Viscosity(k, T+100)
		lam1, lam2 := tr.Conductivity(k, T), tr.Conductivity(k, T+100)
		return mu2 > mu1 && mu1 > 0 && lam2 > lam1 && lam1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// perRowMixtureDiffusion is the reference formula: each row i sums
// X_j / D_ij over j ≠ i in ascending j, calling BinaryDiffusion for
// every ordered pair. It returns how many rows took the self-limit.
func perRowMixtureDiffusion(tr *Model, T, P float64, X, Y, D []float64) (selfLimits int) {
	n := tr.Mechanism().NumSpecies()
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sum += X[j] / tr.BinaryDiffusion(i, j, T, P)
		}
		if sum < 1e-300 {
			D[i] = tr.BinaryDiffusion(i, i, T, P)
			selfLimits++
			continue
		}
		D[i] = (1 - Y[i]) / sum
	}
	return selfLimits
}

// mixtureCases returns the compositions the oracle tests sweep: random
// normalised Y, random Y with some species zeroed, and every pure
// species (the self-limit branch).
func mixtureCases(n int, rng *rand.Rand) [][]float64 {
	var cases [][]float64
	normalise := func(Y []float64) []float64 {
		var s float64
		for _, y := range Y {
			s += y
		}
		for k := range Y {
			Y[k] /= s
		}
		return Y
	}
	for c := 0; c < 6; c++ {
		Y := make([]float64, n)
		for k := range Y {
			Y[k] = rng.Float64()
		}
		cases = append(cases, normalise(Y))
	}
	for c := 0; c < 6; c++ {
		Y := make([]float64, n)
		for k := range Y {
			if rng.Intn(2) == 0 {
				Y[k] = rng.Float64()
			}
		}
		Y[rng.Intn(n)] = 0.5 // never all zero
		cases = append(cases, normalise(Y))
	}
	for k := 0; k < n; k++ {
		Y := make([]float64, n)
		Y[k] = 1
		cases = append(cases, Y)
	}
	return cases
}

var (
	oracleTemps     = []float64{150, 300, 600, 1000, 1500, 2000, 2500, 3000, 3500}
	oraclePressures = []float64{0.5 * chem.PAtm, chem.PAtm, 4 * chem.PAtm}
)

// MixtureDiffusion evaluates each pair once; it must reproduce the
// per-row BinaryDiffusion sum bit for bit on every registered mechanism
// (the ones the components' "mech" parameter offers).
func TestMixtureDiffusionMatchesPerPairOracle(t *testing.T) {
	for _, m := range chem.AllMechanisms() {
		tr := New(m)
		n := m.NumSpecies()
		rng := rand.New(rand.NewSource(7))
		X := make([]float64, n)
		got := make([]float64, n)
		want := make([]float64, n)
		selfLimits := 0
		for _, Y := range mixtureCases(n, rng) {
			m.MoleFractions(Y, X)
			for _, T := range oracleTemps {
				for _, P := range oraclePressures {
					selfLimits += perRowMixtureDiffusion(tr, T, P, X, Y, want)
					tr.MixtureDiffusion(T, P, X, Y, got)
					for k := range got {
						if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s T=%v P=%v Y=%v: D[%d] = %v, per-pair formula %v",
								m.Name, T, P, Y, k, got[k], want[k])
						}
					}
				}
			}
		}
		if selfLimits == 0 {
			t.Errorf("%s: no case reached the self-limit branch", m.Name)
		}
	}
}

// perSpeciesMixtureConductivity is the Mathur rule built from the
// per-species Conductivity, in MixtureConductivity's order.
func perSpeciesMixtureConductivity(tr *Model, T float64, X []float64) float64 {
	var s1, s2 float64
	for k := range X {
		if X[k] <= 0 {
			continue
		}
		lam := tr.Conductivity(k, T)
		s1 += X[k] * lam
		s2 += X[k] / lam
	}
	if s2 == 0 {
		return 0
	}
	return 0.5 * (s1 + 1/s2)
}

// MixtureConductivity evaluates Omega22 once per species class; it must
// reproduce the mixing rule built from the per-species Conductivity bit
// for bit.
func TestMixtureConductivityMatchesPerSpeciesOracle(t *testing.T) {
	for _, m := range chem.AllMechanisms() {
		tr := New(m)
		n := m.NumSpecies()
		rng := rand.New(rand.NewSource(7))
		X := make([]float64, n)
		for _, Y := range mixtureCases(n, rng) {
			m.MoleFractions(Y, X)
			for _, T := range oracleTemps {
				got, want := tr.MixtureConductivity(T, X), perSpeciesMixtureConductivity(tr, T, X)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s T=%v Y=%v: lambda = %v, per-species formula %v", m.Name, T, Y, got, want)
				}
			}
		}
	}
}

// The collision-integral classes: every pair and every species reads a
// class whose ε is bitwise its own, and no two classes share an ε. The
// counts pin how much sharing ljData gives each mechanism, so an edit
// that changes it shows up here.
func TestCollisionIntegralClasses(t *testing.T) {
	want := map[string]struct{ pairs, species int }{
		"h2air-9sp-19rx":      {17, 6},
		"h2air-lite-8sp-5rx":  {17, 6},
		"co-h2-air-12sp-28rx": {38, 9},
	}
	distinct := func(vals []float64) bool {
		seen := map[uint64]bool{}
		for _, v := range vals {
			if seen[math.Float64bits(v)] {
				return false
			}
			seen[math.Float64bits(v)] = true
		}
		return true
	}
	for _, m := range chem.AllMechanisms() {
		tr := New(m)
		n := m.NumSpecies()
		if len(tr.pairs.of) != n*(n-1)/2 || len(tr.species.of) != n {
			t.Fatalf("%s: %d pair and %d species class indices for %d species",
				m.Name, len(tr.pairs.of), len(tr.species.of), n)
		}
		p := 0
		for j := 0; j < n; j++ {
			for k := j + 1; k < n; k++ {
				if e := tr.pairs.eps[tr.pairs.of[p]]; math.Float64bits(e) != math.Float64bits(tr.epsJK[j][k]) {
					t.Errorf("%s: pair (%d,%d) class eps %v, own eps %v", m.Name, j, k, e, tr.epsJK[j][k])
				}
				p++
			}
		}
		for k := 0; k < n; k++ {
			if e := tr.species.eps[tr.species.of[k]]; math.Float64bits(e) != math.Float64bits(tr.lj[k].EpsOverK) {
				t.Errorf("%s: species %d class eps %v, own eps %v", m.Name, k, e, tr.lj[k].EpsOverK)
			}
		}
		if !distinct(tr.pairs.eps) || !distinct(tr.species.eps) {
			t.Errorf("%s: repeated class eps: pairs %v, species %v", m.Name, tr.pairs.eps, tr.species.eps)
		}
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("%s: no expected class counts; add them", m.Name)
			continue
		}
		if len(tr.pairs.eps) != w.pairs || len(tr.species.eps) != w.species {
			t.Errorf("%s: %d of %d pair classes and %d of %d species classes, want %d and %d",
				m.Name, len(tr.pairs.eps), n*(n-1)/2, len(tr.species.eps), n, w.pairs, w.species)
		}
	}
}

func TestNewPanicsAboveMaxSpecies(t *testing.T) {
	base := chem.H2Air()
	big := *base
	big.Species = nil
	for len(big.Species) <= maxSpecies {
		big.Species = append(big.Species, base.Species...)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "maxSpecies") {
			t.Errorf("New on %d species (maxSpecies = %d) panicked with %q", len(big.Species), maxSpecies, msg)
		}
	}()
	New(&big)
}

func TestEvaluateAllocatesNothing(t *testing.T) {
	m := chem.H2Air()
	tr := New(m)
	Y := m.StoichiometricH2Air()
	X := make([]float64, m.NumSpecies())
	D := make([]float64, m.NumSpecies())
	if a := testing.AllocsPerRun(100, func() { tr.Evaluate(1500, chem.PAtm, Y, X, D) }); a != 0 {
		t.Errorf("Evaluate allocates %v times per call", a)
	}
}

// One Model serves many goroutines at once (DRFMComponent answers every
// pool worker): its results must not depend on who else is evaluating.
// The class tables are shared too; New is their only writer.
func TestEvaluateConcurrent(t *testing.T) {
	for _, m := range chem.AllMechanisms() {
		t.Run(m.Name, func(t *testing.T) { testEvaluateConcurrent(t, m) })
	}
}

func testEvaluateConcurrent(t *testing.T, m *chem.Mechanism) {
	tr := New(m)
	n := m.NumSpecies()
	cases := mixtureCases(n, rand.New(rand.NewSource(11)))
	type result struct {
		D           []float64
		lambda, rho float64
	}
	evalAll := func() []result {
		X := make([]float64, n)
		var out []result
		for _, Y := range cases {
			for _, T := range oracleTemps {
				D := make([]float64, n)
				lam, rho := tr.Evaluate(T, chem.PAtm, Y, X, D)
				out = append(out, result{D, lam, rho})
			}
		}
		return out
	}
	serial := evalAll()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r, res := range evalAll() {
				ok := same(res.lambda, serial[r].lambda) && same(res.rho, serial[r].rho)
				for k := range res.D {
					ok = ok && same(res.D[k], serial[r].D[k])
				}
				if !ok {
					errs <- fmt.Sprintf("goroutine %d: result %d differs from the serial run", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Every species of every registered mechanism has its own Lennard-Jones
// entry; New's N2 fallback is for unknown species only.
func TestLJDataCoversEveryMechanism(t *testing.T) {
	for _, m := range chem.AllMechanisms() {
		for _, sp := range m.Species {
			if _, ok := ljData[sp.Name]; !ok {
				t.Errorf("%s: species %s has no transport data", m.Name, sp.Name)
			}
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	for _, m := range chem.AllMechanisms() {
		b.Run(m.Name, func(b *testing.B) {
			tr := New(m)
			Y := m.StoichiometricH2Air()
			X := make([]float64, m.NumSpecies())
			D := make([]float64, m.NumSpecies())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkLambda, _ = tr.Evaluate(1500, chem.PAtm, Y, X, D)
			}
		})
	}
}

var sinkLambda float64

// Viscosity is the pure-species dynamic viscosity in Pa s.
func (t *Model) Viscosity(k int, T float64) float64 {
	return t.viscosity(k, T, omega22(T/t.lj[k].EpsOverK))
}

// Conductivity is the pure-species thermal conductivity in W/(m K).
func (t *Model) Conductivity(k int, T float64) float64 {
	return t.conductivity(k, T, omega22(T/t.lj[k].EpsOverK))
}
