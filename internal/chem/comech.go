package chem

// The mechanism the paper cites ([26] Yetter, Dryer, Rabitz) is a
// comprehensive CO/H2/O2 mechanism; the flame runs use its H2–air
// subset. This file supplies the full carbon-bearing system: the H2–air
// core plus CO/CO2/HCO chemistry, for moist-CO and syngas problems.

// NASA-7 data from the GRI-Mech 3.0 thermodynamic database.
var (
	speciesCO = Species{
		Name: "CO", W: 28.010e-3, Tmid: 1000,
		Low: [7]float64{3.57953347e+00, -6.10353680e-04, 1.01681433e-06,
			9.07005884e-10, -9.04424499e-13, -1.43440860e+04, 3.50840928e+00},
		High: [7]float64{2.71518561e+00, 2.06252743e-03, -9.98825771e-07,
			2.30053008e-10, -2.03647716e-14, -1.41518724e+04, 7.81868772e+00},
	}
	speciesCO2 = Species{
		Name: "CO2", W: 44.009e-3, Tmid: 1000,
		Low: [7]float64{2.35677352e+00, 8.98459677e-03, -7.12356269e-06,
			2.45919022e-09, -1.43699548e-13, -4.83719697e+04, 9.90105222e+00},
		High: [7]float64{3.85746029e+00, 4.41437026e-03, -2.21481404e-06,
			5.23490188e-10, -4.72084164e-14, -4.87591660e+04, 2.27163806e+00},
	}
	speciesHCO = Species{
		Name: "HCO", W: 29.018e-3, Tmid: 1000,
		Low: [7]float64{4.22118584e+00, -3.24392532e-03, 1.37799446e-05,
			-1.33144093e-08, 4.33768865e-12, 3.83956496e+03, 3.39437243e+00},
		High: [7]float64{2.77217438e+00, 4.95695526e-03, -2.48445613e-06,
			8.26441220e-10, -1.56735760e-13, 4.01191815e+03, 9.79834492e+00},
	}
)

// COH2Air returns the 12-species CO/H2/O2/N2 mechanism: the 19
// hydrogen reactions of H2Air plus 9 carbon reactions (CO oxidation
// through CO+OH, plus the HCO channel). Species order: the H2Air nine
// followed by CO, CO2, HCO.
func COH2Air() *Mechanism {
	base := H2Air()
	m := &Mechanism{
		Name:    "co-h2-air-12sp-28rx",
		Species: append(append([]Species{}, base.Species...), speciesCO, speciesCO2, speciesHCO),
	}
	m.buildIndex()
	// The hydrogen reactions carry over verbatim (indices are shared
	// because the new species append after the old ones).
	m.Reactions = append(m.Reactions, base.Reactions...)

	iH2, iO2, iH2O, iOH := m.SpeciesIndex("H2"), m.SpeciesIndex("O2"), m.SpeciesIndex("H2O"), m.SpeciesIndex("OH")
	iH, iO, iHO2 := m.SpeciesIndex("H"), m.SpeciesIndex("O"), m.SpeciesIndex("HO2")
	iCO, iCO2, iHCO := m.SpeciesIndex("CO"), m.SpeciesIndex("CO2"), m.SpeciesIndex("HCO")

	eff := map[int]float64{iH2: 2.5, iH2O: 12.0, iCO: 1.9, iCO2: 3.8}
	s1 := func(i int) []Stoich { return []Stoich{{i, 1}} }
	s2 := func(i, j int) []Stoich {
		if i == j {
			return []Stoich{{i, 2}}
		}
		return []Stoich{{i, 1}, {j, 1}}
	}

	m.Reactions = append(m.Reactions,
		// CO oxidation.
		rxn(m, "CO+OH=CO2+H", s2(iCO, iOH), s2(iCO2, iH), 4.760e7, 1.228, 70, false, nil),
		rxn(m, "CO+O+M=CO2+M", s2(iCO, iO), s1(iCO2), 6.020e14, 0, 3000, true, eff),
		rxn(m, "CO+O2=CO2+O", s2(iCO, iO2), s2(iCO2, iO), 2.500e12, 0, 47800, false, nil),
		rxn(m, "CO+HO2=CO2+OH", s2(iCO, iHO2), s2(iCO2, iOH), 1.500e14, 0, 23600, false, nil),
		// Formyl channel.
		rxn(m, "HCO+M=H+CO+M", s1(iHCO), s2(iH, iCO), 1.870e17, -1.0, 17000, true, eff),
		rxn(m, "HCO+H=CO+H2", s2(iHCO, iH), s2(iCO, iH2), 7.340e13, 0, 0, false, nil),
		rxn(m, "HCO+O=CO+OH", s2(iHCO, iO), s2(iCO, iOH), 3.020e13, 0, 0, false, nil),
		rxn(m, "HCO+OH=CO+H2O", s2(iHCO, iOH), s2(iCO, iH2O), 3.020e13, 0, 0, false, nil),
		rxn(m, "HCO+O2=CO+HO2", s2(iHCO, iO2), s2(iCO, iHO2), 1.204e10, 0.807, -727, false, nil),
	)
	return m
}
