package chem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccahydro/internal/cvode"
)

func TestCOMechanismShape(t *testing.T) {
	m := COH2Air()
	if m.NumSpecies() != 12 {
		t.Errorf("species = %d", m.NumSpecies())
	}
	if m.NumReactions() != 28 {
		t.Errorf("reactions = %d", m.NumReactions())
	}
}

func TestCarbonFormationEnthalpies(t *testing.T) {
	cases := []struct {
		sp   *Species
		want float64
	}{
		{&speciesCO, -110500},
		{&speciesCO2, -393500},
		{&speciesHCO, 42000},
	}
	for _, c := range cases {
		h := c.sp.HMolar(298.15)
		if math.Abs(h-c.want) > math.Max(4000, 0.03*math.Abs(c.want)) {
			t.Errorf("%s: Hf = %.0f, want ~%.0f", c.sp.Name, h, c.want)
		}
	}
}

func TestCOMechanismConservesMassAndElements(t *testing.T) {
	m := COH2Air()
	nC := map[string]float64{"CO": 1, "CO2": 1, "HCO": 1}
	nH := map[string]float64{"H2": 2, "H2O": 2, "OH": 1, "H": 1, "HO2": 1, "H2O2": 2, "HCO": 1}
	nO := map[string]float64{"O2": 2, "H2O": 1, "OH": 1, "O": 1, "HO2": 2, "H2O2": 2, "CO": 1, "CO2": 2, "HCO": 1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		T := 800 + 1700*rng.Float64()
		conc := make([]float64, m.NumSpecies())
		for i := range conc {
			conc[i] = rng.Float64() * 5
		}
		wdot := make([]float64, m.NumSpecies())
		m.ProductionRates(T, conc, wdot)
		var mass, sc, sh, so, scale float64
		for i, sp := range m.Species {
			mass += wdot[i] * sp.W
			sc += wdot[i] * nC[sp.Name]
			sh += wdot[i] * nH[sp.Name]
			so += wdot[i] * nO[sp.Name]
			scale += math.Abs(wdot[i])
		}
		tol := 1e-9 * (scale + 1)
		return math.Abs(mass) < tol && math.Abs(sc) < tol &&
			math.Abs(sh) < tol && math.Abs(so) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMoistCOIgnition integrates moist CO at elevated temperature: CO
// must oxidize to CO2 with a temperature rise, and the hydrogen trace
// is the catalyst (the Yetter-Dryer headline observation).
func TestMoistCOIgnition(t *testing.T) {
	m := COH2Air()
	ws := NewSourceWorkspace(m)
	n := m.NumSpecies()
	f := func(_ float64, y, ydot []float64) {
		T := y[0]
		if T < 200 {
			T = 200
		}
		rho := m.Density(y[1+n], T, y[1:1+n])
		ydot[0] = m.ConstVolumeSource(T, rho, y[1:1+n], ydot[1:1+n], ws)
		ydot[1+n] = m.DPDt(rho, T, ydot[0], y[1:1+n], ydot[1:1+n])
	}
	s := cvode.New(n+2, f, cvode.Options{RelTol: 1e-7, AbsTol: 1e-11})
	y0 := make([]float64, n+2)
	y0[0] = 1400
	// Stoichiometric CO/air plus 5 % H2 by mole of CO (the Yetter-Dryer
	// configuration): moles per mole CO, which MassFractions normalizes.
	X := make([]float64, n)
	X[m.SpeciesIndex("CO")] = 1
	X[m.SpeciesIndex("H2")] = 0.05
	X[m.SpeciesIndex("O2")] = 0.5 * 1.05
	X[m.SpeciesIndex("N2")] = 3.76 * 0.5 * 1.05
	m.MassFractions(X, y0[1:1+n])
	y0[1+n] = PAtm
	s.Init(0, y0)
	if err := s.Integrate(5e-3); err != nil {
		t.Fatal(err)
	}
	y := s.Y()
	if y[0] < 2000 {
		t.Errorf("moist CO did not ignite: T = %v", y[0])
	}
	co2 := y[1+m.SpeciesIndex("CO2")]
	co := y[1+m.SpeciesIndex("CO")]
	if co2 < 0.2 {
		t.Errorf("Y_CO2 = %v, want substantial oxidation", co2)
	}
	if co > 0.15 {
		t.Errorf("Y_CO = %v, want mostly consumed", co)
	}
}

func TestH2AirSubsetUnchanged(t *testing.T) {
	// The CO mechanism's first 19 reactions are exactly the H2Air set:
	// rates at a shared state must agree (the reuse the paper leans on).
	h2 := H2Air()
	co := COH2Air()
	T := 1500.0
	concH2 := make([]float64, h2.NumSpecies())
	concCO := make([]float64, co.NumSpecies())
	for i := range concH2 {
		concH2[i] = 0.5 + float64(i)*0.1
		concCO[i] = concH2[i] // carbon species zero
	}
	wH2 := make([]float64, h2.NumSpecies())
	wCO := make([]float64, co.NumSpecies())
	h2.ProductionRates(T, concH2, wH2)
	co.ProductionRates(T, concCO, wCO)
	for i := range wH2 {
		if math.Abs(wH2[i]-wCO[i]) > 1e-9*(math.Abs(wH2[i])+1) {
			t.Errorf("species %s: %v vs %v", h2.Species[i].Name, wH2[i], wCO[i])
		}
	}
}
