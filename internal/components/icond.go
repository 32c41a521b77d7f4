package components

import (
	"math"

	"ccahydro/internal/cca"
)

// InitialCondition initializes the reaction–diffusion field with hot
// spots in a cold stoichiometric H2–air mixture (the paper's
// three-hot-spot configuration). The field layout is [T, Y_0..Y_{n-1}].
type InitialCondition struct {
	svc cca.Services
}

// hotSpotCenters are fixed fractional positions (the paper's layout is
// unspecified; these three are well separated).
var hotSpotCenters = [4][2]float64{
	{0.30, 0.30}, {0.70, 0.40}, {0.45, 0.72}, {0.75, 0.75},
}

var initialConditionSpec = &Spec{
	Class: "InitialCondition", New: func() cca.Component { return &InitialCondition{} },
	Params: map[string]Param{
		"Tcold":  fparam("300", 100, 5000),  // ambient temperature, K
		"Thot":   fparam("1800", 100, 5000), // hot-spot peak temperature, K
		"radius": fparam("0.06", 1e-9, 1e3), // hot-spot radius as a fraction of the domain
		"nspots": iparam("3", 1, 4),         // number of hot spots
	},
	Uses:     []PortDecl{need("chemistry", ChemistryPortType)},
	Provides: []PortDecl{prov("ic", ICFieldPortType)},
}

// SetServices implements cca.Component.
func (ic *InitialCondition) SetServices(svc cca.Services) error {
	ic.svc = svc
	return initialConditionSpec.register(svc, ic)
}

// Impose implements ICFieldPort: writes T and mass fractions over the
// whole hierarchy (all levels, interiors and ghosts).
func (ic *InitialCondition) Impose(mesh MeshPort, name string) {
	p, err := ic.svc.GetPort("chemistry")
	if err != nil {
		panic(err)
	}
	ic.svc.ReleasePort("chemistry")
	mech := p.(ChemistryPort).Mechanism()
	Y := mech.StoichiometricH2Air()

	params := ic.svc.Parameters()
	tCold := initialConditionSpec.Float(params, "Tcold")
	tHot := initialConditionSpec.Float(params, "Thot")
	radius := initialConditionSpec.Float(params, "radius")
	nspots := min(initialConditionSpec.Int(params, "nspots"), len(hotSpotCenters))

	d := mesh.Field(name)
	h := d.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		dx, dy := mesh.Spacing(l)
		nx, _ := h.LevelDomain(l).Size()
		lx := dx * float64(nx)
		for _, pd := range d.LocalPatches(l) {
			g := pd.GrownBox()
			for j := g.Lo[1]; j <= g.Hi[1]; j++ {
				for i := g.Lo[0]; i <= g.Hi[0]; i++ {
					x := (float64(i) + 0.5) * dx
					y := (float64(j) + 0.5) * dy
					T := tCold
					for s := 0; s < nspots; s++ {
						cx := hotSpotCenters[s][0] * lx
						cy := hotSpotCenters[s][1] * lx
						r2 := (x-cx)*(x-cx) + (y-cy)*(y-cy)
						sigma2 := (radius * lx) * (radius * lx)
						T += (tHot - tCold) * math.Exp(-r2/(2*sigma2))
					}
					pd.Set(0, i, j, T)
					for k, yk := range Y {
						pd.Set(1+k, i, j, yk)
					}
				}
			}
		}
	}
}

// GasProperties is the shock assembly's Database component: it holds
// gamma and the Air/Freon shock-tube parameters as key-value pairs.
// One instance lives per rank framework, so no locking is needed.
type GasProperties struct {
	db map[string]float64
}

var gasPropertiesSpec = &Spec{
	Class: "GasProperties", New: func() cca.Component { return &GasProperties{} },
	Params: map[string]Param{
		"gamma":        fparam("1.4", 1.0001, 3),
		"densityRatio": fparam("3.0", 1e-3, 1e3),
		"mach":         fparam("1.5", 1, 50),
	},
	Provides: []PortDecl{prov("properties", KeyValuePortType)},
}

// SetServices implements cca.Component: every parameter is loaded into
// the database.
func (gp *GasProperties) SetServices(svc cca.Services) error {
	gp.db = make(map[string]float64, len(gasPropertiesSpec.Params))
	for key := range gasPropertiesSpec.Params {
		gp.db[key] = gasPropertiesSpec.Float(svc.Parameters(), key)
	}
	return gasPropertiesSpec.register(svc, gp)
}

// gasValue reads key from a gas-properties database, falling back to
// the GasProperties default when the provider lacks it.
func gasValue(db KeyValuePort, key string) float64 {
	if v, ok := db.Value(key); ok {
		return v
	}
	return gasPropertiesSpec.Float(nil, key)
}

// SetValue implements KeyValuePort.
func (gp *GasProperties) SetValue(key string, v float64) { gp.db[key] = v }

// Value implements KeyValuePort.
func (gp *GasProperties) Value(key string) (float64, bool) {
	v, ok := gp.db[key]
	return v, ok
}
