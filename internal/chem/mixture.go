package chem

// Mixture-level thermodynamic helpers over mass fractions Y (length
// NumSpecies, summing to 1).

// MeanW returns the mean molar mass in kg/mol: 1/Σ(Y_i/W_i).
func (m *Mechanism) MeanW(Y []float64) float64 {
	var s float64
	for i := range m.Species {
		s += Y[i] / m.Species[i].W
	}
	return 1 / s
}

// Density returns rho from the ideal-gas law at (P, T, Y) in kg/m^3.
func (m *Mechanism) Density(P, T float64, Y []float64) float64 {
	return P * m.MeanW(Y) / (R * T)
}

// Pressure returns P from (rho, T, Y) in Pa.
func (m *Mechanism) Pressure(rho, T float64, Y []float64) float64 {
	return rho * R * T / m.MeanW(Y)
}

// CpMass returns the mixture cp in J/(kg K).
func (m *Mechanism) CpMass(T float64, Y []float64) float64 {
	var cp float64
	for i := range m.Species {
		cp += Y[i] * m.Species[i].CpMass(T)
	}
	return cp
}

// CvMass returns the mixture cv = cp - R/W in J/(kg K).
func (m *Mechanism) CvMass(T float64, Y []float64) float64 {
	return m.CpMass(T, Y) - R/m.MeanW(Y)
}

// HMass returns the mixture specific enthalpy in J/kg (with formation
// enthalpies).
func (m *Mechanism) HMass(T float64, Y []float64) float64 {
	var h float64
	for i := range m.Species {
		h += Y[i] * m.Species[i].HMass(T)
	}
	return h
}

// MoleFractions converts mass to mole fractions; out may alias Y.
func (m *Mechanism) MoleFractions(Y, out []float64) {
	w := m.MeanW(Y)
	for i := range m.Species {
		out[i] = Y[i] * w / m.Species[i].W
	}
}

// MassFractions converts mole to mass fractions; out may alias X.
func (m *Mechanism) MassFractions(X, out []float64) {
	var wm float64
	for i := range m.Species {
		wm += X[i] * m.Species[i].W
	}
	for i := range m.Species {
		out[i] = X[i] * m.Species[i].W / wm
	}
}

// StoichiometricH2Air returns mass fractions of a stoichiometric
// H2–air mixture (2 H2 : 1 O2 : 3.76 N2 by mole) mapped onto the
// mechanism's species.
func (m *Mechanism) StoichiometricH2Air() []float64 {
	X := make([]float64, m.NumSpecies())
	tot := 2.0 + 1.0 + 3.76
	X[m.SpeciesIndex("H2")] = 2.0 / tot
	X[m.SpeciesIndex("O2")] = 1.0 / tot
	X[m.SpeciesIndex("N2")] = 3.76 / tot
	Y := make([]float64, m.NumSpecies())
	m.MassFractions(X, Y)
	return Y
}

// NormalizeY clamps negatives to zero and rescales Y to sum to one
// (defensive normalization after transport/integration steps).
func NormalizeY(Y []float64) {
	var s float64
	for i, v := range Y {
		if v < 0 {
			Y[i] = 0
			v = 0
		}
		s += v
	}
	if s > 0 {
		inv := 1 / s
		for i := range Y {
			Y[i] *= inv
		}
	}
}
