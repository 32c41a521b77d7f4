package components

import (
	"math"

	"ccahydro/internal/cca"
	"ccahydro/internal/euler"
)

// KelvinHelmholtzIC sets up a double shear layer for the classic
// Kelvin–Helmholtz instability: a dense band in the middle third of the
// domain streaming against the outer gas, with a small sinusoidal
// transverse velocity perturbation to seed the roll-up. Units are
// nondimensional (outer gas rho=1, p=1); the band density comes from
// the GasProperties database ("densityRatio").
type KelvinHelmholtzIC struct {
	svc cca.Services
}

var kelvinHelmholtzSpec = &Spec{
	Class: "KelvinHelmholtzIC", New: func() cca.Component { return &KelvinHelmholtzIC{} },
	Params: map[string]Param{
		"shearU":     fparam("0.5", 0, 50),       // velocity jump across each layer
		"thickness":  fparam("0.05", 1e-4, 0.25), // shear-layer thickness as a fraction of Ly
		"perturbAmp": fparam("0.01", 0, 1),       // transverse perturbation amplitude
		"modes":      iparam("2", 1, 64),         // perturbation wavenumber across Lx
	},
	Uses:     []PortDecl{need("gasProperties", KeyValuePortType)},
	Provides: []PortDecl{prov("ic", ICFieldPortType)},
}

// SetServices implements cca.Component.
func (kh *KelvinHelmholtzIC) SetServices(svc cca.Services) error {
	kh.svc = svc
	return kelvinHelmholtzSpec.register(svc, kh)
}

// Impose implements ICFieldPort on the conserved field.
func (kh *KelvinHelmholtzIC) Impose(mesh MeshPort, name string) {
	gp, err := kh.svc.GetPort("gasProperties")
	if err != nil {
		panic(err)
	}
	kh.svc.ReleasePort("gasProperties")
	db := gp.(KeyValuePort)
	gamma, _ := db.Value("gamma")
	if gamma == 0 {
		gamma = euler.AirGamma
	}
	ratio := gasValue(db, "densityRatio")
	params := kh.svc.Parameters()
	shearU := kelvinHelmholtzSpec.Float(params, "shearU")
	delta := kelvinHelmholtzSpec.Float(params, "thickness")
	amp := kelvinHelmholtzSpec.Float(params, "perturbAmp")
	modes := float64(kelvinHelmholtzSpec.Int(params, "modes"))

	g := euler.Gas{Gamma: gamma}
	d := mesh.Field(name)
	h := d.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		dx, dy := mesh.Spacing(l)
		LX := dx * float64(h.LevelDomain(l).Hi[0]+1)
		LY := dy * float64(h.LevelDomain(l).Hi[1]+1)
		for _, pd := range d.LocalPatches(l) {
			gb := pd.GrownBox()
			for j := gb.Lo[1]; j <= gb.Hi[1]; j++ {
				for i := gb.Lo[0]; i <= gb.Hi[0]; i++ {
					fx := (float64(i) + 0.5) * dx / LX
					fy := (float64(j) + 0.5) * dy / LY
					// s ramps 0 -> 1 -> 0 across the two shear layers at
					// fy = 1/4 and fy = 3/4.
					s := 0.5 * (math.Tanh((fy-0.25)/delta) - math.Tanh((fy-0.75)/delta))
					w := euler.Primitive{
						Rho: 1 + (ratio-1)*s,
						U:   shearU * (s - 0.5),
						V: amp * math.Sin(2*math.Pi*modes*fx) *
							(math.Exp(-sq((fy-0.25)/delta)) + math.Exp(-sq((fy-0.75)/delta))),
						P:    1,
						Zeta: s,
					}
					u := g.ToConserved(w)
					for k := 0; k < euler.NumComp; k++ {
						pd.Set(k, i, j, u[k])
					}
				}
			}
		}
	}
}

func sq(x float64) float64 { return x * x }

// RichtmyerMeshkovIC sets up the Richtmyer–Meshkov problem: a
// rightward-moving Mach-M shock (strength and gamma from the
// GasProperties database) about to strike a sinusoidally corrugated
// interface between light and heavy gas ("densityRatio"). The
// impulsive acceleration inverts and grows the corrugation — the
// single-shot cousin of Rayleigh–Taylor.
type RichtmyerMeshkovIC struct {
	svc cca.Services
}

var richtmyerMeshkovSpec = &Spec{
	Class: "RichtmyerMeshkovIC", New: func() cca.Component { return &RichtmyerMeshkovIC{} },
	Params: map[string]Param{
		"interfaceX": fparam("0.55", 0, 1),    // mean interface position as a fraction of Lx
		"amplitude":  fparam("0.05", 0, 0.25), // corrugation amplitude as a fraction of Lx
		"modes":      iparam("3", 1, 64),      // corrugation wavenumber across Ly
		"shockX":     fparam("0.25", 0, 1),    // initial shock position fraction
	},
	Uses:     []PortDecl{need("gasProperties", KeyValuePortType)},
	Provides: []PortDecl{prov("ic", ICFieldPortType)},
}

// SetServices implements cca.Component.
func (rm *RichtmyerMeshkovIC) SetServices(svc cca.Services) error {
	rm.svc = svc
	return richtmyerMeshkovSpec.register(svc, rm)
}

// Impose implements ICFieldPort on the conserved field.
func (rm *RichtmyerMeshkovIC) Impose(mesh MeshPort, name string) {
	gp, err := rm.svc.GetPort("gasProperties")
	if err != nil {
		panic(err)
	}
	rm.svc.ReleasePort("gasProperties")
	db := gp.(KeyValuePort)
	gamma, _ := db.Value("gamma")
	if gamma == 0 {
		gamma = euler.AirGamma
	}
	ratio := gasValue(db, "densityRatio")
	mach := gasValue(db, "mach")
	params := rm.svc.Parameters()
	ifaceX := richtmyerMeshkovSpec.Float(params, "interfaceX")
	amp := richtmyerMeshkovSpec.Float(params, "amplitude")
	modes := float64(richtmyerMeshkovSpec.Int(params, "modes"))
	shockX := richtmyerMeshkovSpec.Float(params, "shockX")

	g := euler.Gas{Gamma: gamma}
	light := euler.Primitive{Rho: 1, P: 1, Zeta: 0}
	heavy := euler.Primitive{Rho: ratio, P: 1, Zeta: 1}
	post := PostShockState(gamma, mach, light.Rho, light.P)

	d := mesh.Field(name)
	h := d.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		dx, dy := mesh.Spacing(l)
		LX := dx * float64(h.LevelDomain(l).Hi[0]+1)
		LY := dy * float64(h.LevelDomain(l).Hi[1]+1)
		for _, pd := range d.LocalPatches(l) {
			gb := pd.GrownBox()
			for j := gb.Lo[1]; j <= gb.Hi[1]; j++ {
				for i := gb.Lo[0]; i <= gb.Hi[0]; i++ {
					x := (float64(i) + 0.5) * dx
					y := (float64(j) + 0.5) * dy
					xi := ifaceX*LX + amp*LX*math.Cos(2*math.Pi*modes*y/LY)
					var w euler.Primitive
					switch {
					case x < shockX*LX:
						w = post
					case x < xi:
						w = light
					default:
						w = heavy
					}
					u := g.ToConserved(w)
					for k := 0; k < euler.NumComp; k++ {
						pd.Set(k, i, j, u[k])
					}
				}
			}
		}
	}
}
