package components

import (
	"fmt"
	"sync"

	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"

	// Generated chemistry kernels register themselves on import, so
	// every assembly built from this package resolves them by default.
	_ "ccahydro/internal/chem/kernels"
)

// ThermoChemistry embodies the chemical interactions: it provides the
// source terms for temperature and species due to chemistry, and also
// serves as the Database subsystem holding gas properties (the paper
// wraps pre-existing F77 chemistry the same way). The mechanism is
// selected by the "mech" parameter ("h2air" or "h2air-lite").
//
// Source terms are evaluated by the mechanism's chemgen-generated
// kernel. The interpreted Reaction tables remain the mechanism's
// definition — the chemgen input and the kernels package's test oracle
// — but never run here. Kernels are stateless, so the port is safe to
// call from many worker goroutines at once (parallel per-cell chemistry
// hammers it); only the property database needs the mutex.
type ThermoChemistry struct {
	mech   *chem.Mechanism
	kernel chem.Kernel
	db     map[string]float64
	mu     sync.Mutex
}

// mechParam selects a mechanism under any name chem.ByName resolves,
// short or fully qualified.
var mechParam = eparam("h2air",
	"h2air", "h2air-9sp-19rx",
	"h2air-lite", "h2air-lite-8sp-5rx",
	"co-h2-air", "co-h2-air-12sp-28rx")

// pressureParam is an open-domain pressure in Pa, 1 atm by default.
var pressureParam = fparam("101325", 1, 1e9)

var thermoChemistrySpec = &Spec{
	Class: "ThermoChemistry", New: func() cca.Component { return &ThermoChemistry{} },
	Params: map[string]Param{"mech": mechParam},
	Provides: []PortDecl{
		prov("chemistry", ChemistryPortType), prov("properties", KeyValuePortType),
	},
}

// SetServices implements cca.Component.
func (tc *ThermoChemistry) SetServices(svc cca.Services) error {
	m, err := chem.ByName(thermoChemistrySpec.Str(svc.Parameters(), "mech"))
	if err != nil {
		return err
	}
	tc.mech = m
	if tc.kernel = chem.KernelFor(m.Name); tc.kernel == nil {
		return fmt.Errorf("thermochem: no generated kernel for %q (run go generate ./internal/chem/...)", m.Name)
	}
	tc.db = make(map[string]float64)
	// Populate the property database: molar masses and counts.
	tc.db["nspecies"] = float64(m.NumSpecies())
	tc.db["nreactions"] = float64(m.NumReactions())
	for i, sp := range m.Species {
		tc.db[fmt.Sprintf("W_%s", sp.Name)] = sp.W
		tc.db[fmt.Sprintf("index_%s", sp.Name)] = float64(i)
	}
	return thermoChemistrySpec.register(svc, tc, keyValueView{tc})
}

// Mechanism implements ChemistryPort.
func (tc *ThermoChemistry) Mechanism() *chem.Mechanism { return tc.mech }

// Kernel implements ChemistryPort.
func (tc *ThermoChemistry) Kernel() chem.Kernel { return tc.kernel }

// ConstPressure implements ChemistryPort. Safe for concurrent callers.
func (tc *ThermoChemistry) ConstPressure(T, P float64, Y, dY []float64) float64 {
	return tc.kernel.ConstPressureSource(T, P, Y, dY)
}

// ConstVolume implements ChemistryPort. Safe for concurrent callers.
func (tc *ThermoChemistry) ConstVolume(T, rho float64, Y, dY []float64) float64 {
	return tc.kernel.ConstVolumeSource(T, rho, Y, dY)
}

// keyValueView adapts the property map to KeyValuePort.
type keyValueView struct{ tc *ThermoChemistry }

func (v keyValueView) SetValue(key string, val float64) {
	v.tc.mu.Lock()
	v.tc.db[key] = val
	v.tc.mu.Unlock()
}

func (v keyValueView) Value(key string) (float64, bool) {
	v.tc.mu.Lock()
	defer v.tc.mu.Unlock()
	val, ok := v.tc.db[key]
	return val, ok
}

// DPDt is the paper's dPdt component: it computes the pressure term
// for the rigid-wall (constant mass and volume) boundary condition of
// the 0D ignition problem.
type DPDt struct {
	svc  cca.Services
	chem ChemistryPort
}

var dpdtSpec = &Spec{
	Class: "DPDt", New: func() cca.Component { return &DPDt{} },
	Uses:     []PortDecl{need("chemistry", ChemistryPortType)},
	Provides: []PortDecl{prov("dpdt", DPDtPortType)},
}

// SetServices implements cca.Component.
func (d *DPDt) SetServices(svc cca.Services) error {
	d.svc = svc
	return dpdtSpec.register(svc, d)
}

// DPDt implements DPDtPort.
func (d *DPDt) DPDt(rho, T, dTdt float64, Y, dYdt []float64) float64 {
	if d.chem == nil {
		p, err := d.svc.GetPort("chemistry")
		if err != nil {
			panic(err) // wiring bug: assembly must connect chemistry first
		}
		d.chem = p.(ChemistryPort)
	}
	return d.chem.Mechanism().DPDt(rho, T, dTdt, Y, dYdt)
}

// ProblemModeler is the 0D adaptor between the integrator and the
// chemistry: it assembles the RHS over the state vector
// Phi = {T, Y_1..Y_N, P}, adding the pressure term supplied by the
// dPdt component to the heat equation (rigid walls: constant mass and
// volume).
type ProblemModeler struct {
	svc  cca.Services
	dY   []float64
	chem ChemistryPort
	dpdt DPDtPort
}

var problemModelerSpec = &Spec{
	Class: "ProblemModeler", New: func() cca.Component { return &ProblemModeler{} },
	Uses:     []PortDecl{need("chemistry", ChemistryPortType), need("dpdt", DPDtPortType)},
	Provides: []PortDecl{prov("rhs", RHSPortType)},
}

// SetServices implements cca.Component.
func (pm *ProblemModeler) SetServices(svc cca.Services) error {
	pm.svc = svc
	return problemModelerSpec.register(svc, pm)
}

func (pm *ProblemModeler) chemistry() ChemistryPort {
	if pm.chem == nil {
		p, err := pm.svc.GetPort("chemistry")
		if err != nil {
			panic(err)
		}
		pm.chem = p.(ChemistryPort)
	}
	return pm.chem
}

// Eval implements RHSPort for y = [T, Y_0..Y_{n-1}, P]. The density of
// the rigid vessel is recovered from the instantaneous state (it is a
// constant of the motion under these equations).
func (pm *ProblemModeler) Eval(t float64, y, ydot []float64) {
	chemPort := pm.chemistry()
	mech := chemPort.Mechanism()
	n := mech.NumSpecies()
	T := y[0]
	Y := y[1 : 1+n]
	P := y[1+n]
	if T < 200 {
		T = 200 // guard transients; chemistry is frozen this cold anyway
	}
	rho := mech.Density(P, T, Y)
	if pm.dY == nil {
		pm.dY = make([]float64, n)
	}
	dT := chemPort.ConstVolume(T, rho, Y, pm.dY)
	ydot[0] = dT
	copy(ydot[1:1+n], pm.dY)

	if pm.dpdt == nil {
		dp, err := pm.svc.GetPort("dpdt")
		if err != nil {
			panic(err)
		}
		pm.dpdt = dp.(DPDtPort)
	}
	ydot[1+n] = pm.dpdt.DPDt(rho, T, dT, Y, pm.dY)
}

// JacFn implements RHSPort: the analytic Jacobian of Eval over
// z = [T, Y..., P] from the chemistry's generated kernel
// (chem.RigidVesselJac does the density and pressure-row chain rules).
// Each call returns a closure with private scratch.
func (pm *ProblemModeler) JacFn() cvode.Jac {
	chemPort := pm.chemistry()
	return chem.RigidVesselJac(chemPort.Kernel(), chemPort.Mechanism())
}

// Initializer imposes the 0D initial condition: a vector of double
// precision numbers giving the stoichiometric mass fractions, the
// initial temperature and the initial pressure, settable through
// parameters "T0" (K) and "P0" (Pa).
type Initializer struct {
	T0, P0 float64
	svc    cca.Services
}

var initializerSpec = &Spec{
	Class: "Initializer", New: func() cca.Component { return &Initializer{} },
	Params:   map[string]Param{"T0": fparam("1000", 200, 5000), "P0": pressureParam},
	Uses:     []PortDecl{need("chemistry", ChemistryPortType)},
	Provides: []PortDecl{prov("ic", ICStatePortType)},
}

// SetServices implements cca.Component.
func (ic *Initializer) SetServices(svc cca.Services) error {
	ic.svc = svc
	ic.T0 = initializerSpec.Float(svc.Parameters(), "T0")
	ic.P0 = initializerSpec.Float(svc.Parameters(), "P0")
	return initializerSpec.register(svc, ic)
}

// InitialState implements ICStatePort.
func (ic *Initializer) InitialState() (float64, float64, []float64) {
	p, err := ic.svc.GetPort("chemistry")
	if err != nil {
		panic(err)
	}
	ic.svc.ReleasePort("chemistry")
	mech := p.(ChemistryPort).Mechanism()
	return ic.T0, ic.P0, mech.StoichiometricH2Air()
}
