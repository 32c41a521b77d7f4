package components

import (
	"math"
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
)

// States reconstructs limited left/right face states (paper Sec. 4.3).
// Parameter "limiter" selects mc, minmod or first.
type States struct {
	row euler.StatesRow
}

var statesSpec = &Spec{
	Class: "States", New: func() cca.Component { return &States{} },
	Params:   map[string]Param{"limiter": eparam("mc", "mc", "minmod", "first")},
	Provides: []PortDecl{prov("states", StatesPortType)},
}

// SetServices implements cca.Component.
func (st *States) SetServices(svc cca.Services) error {
	var lim euler.Limiter
	switch statesSpec.Str(svc.Parameters(), "limiter") {
	case "minmod":
		lim = euler.MinMod
	case "first":
		lim = euler.FirstOrder
	default:
		lim = euler.MC
	}
	st.row = euler.MUSCLRow(lim)
	return statesSpec.register(svc, st)
}

// Row implements StatesPort.
func (st *States) Row(g euler.Gas, pd *field.PatchData, i0, j0, dir int, l, r []euler.Primitive) {
	st.row(g, pd, i0, j0, dir, l, r)
}

// The flux components lift the per-face kernels of package euler onto
// rows of faces.
var (
	godunovRow = euler.RowFlux(euler.GodunovFlux)
	hllcRow    = euler.RowFlux(euler.HLLCFlux)
	efmRow     = euler.RowFlux(euler.EFMFlux)
)

// GodunovFluxComp provides the exact-Riemann Godunov flux.
type GodunovFluxComp struct{}

var godunovFluxSpec = &Spec{
	Class: "GodunovFlux", New: func() cca.Component { return &GodunovFluxComp{} },
	Provides: []PortDecl{prov("flux", FluxPortType)},
}

// SetServices implements cca.Component.
func (gf *GodunovFluxComp) SetServices(svc cca.Services) error {
	return godunovFluxSpec.register(svc, gf)
}

// Row implements FluxPort.
func (gf *GodunovFluxComp) Row(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	godunovRow(g, l, r, f)
}

// HLLCFluxComp provides the HLLC approximate Riemann flux — a third
// interchangeable flux component (cheaper than the exact solver,
// sharper than EFM), demonstrating the same swap the paper performs.
type HLLCFluxComp struct{}

var hllcFluxSpec = &Spec{
	Class: "HLLCFlux", New: func() cca.Component { return &HLLCFluxComp{} },
	Provides: []PortDecl{prov("flux", FluxPortType)},
}

// SetServices implements cca.Component.
func (hf *HLLCFluxComp) SetServices(svc cca.Services) error {
	return hllcFluxSpec.register(svc, hf)
}

// Row implements FluxPort.
func (hf *HLLCFluxComp) Row(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	hllcRow(g, l, r, f)
}

// EFMFluxComp provides Pullin's Equilibrium Flux Method — the paper's
// drop-in replacement for GodunovFlux at Mach ≈ 3.5.
type EFMFluxComp struct{}

var efmFluxSpec = &Spec{
	Class: "EFMFlux", New: func() cca.Component { return &EFMFluxComp{} },
	Provides: []PortDecl{prov("flux", FluxPortType)},
}

// SetServices implements cca.Component.
func (ef *EFMFluxComp) SetServices(svc cca.Services) error {
	return efmFluxSpec.register(svc, ef)
}

// Row implements FluxPort.
func (ef *EFMFluxComp) Row(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	efmRow(g, l, r, f)
}

// InviscidFlux is the adaptor that supplies the right-hand side of the
// Euler equations patch by patch: it uses a States component to set up
// the Riemann problems along a row of cell interfaces and passes the
// row to the connected flux component for the solution (paper Sec.
// 4.3). Both ports are crossed once per row or column, at the paper's
// patch-array granularity.
type InviscidFlux struct {
	svc cca.Services
	// The assembled solver resolves once: ports are interface values
	// after connection, and concurrent EvalRegion calls (the integrator
	// fans patches out) must not mutate component state.
	once   sync.Once
	solved euler.Solver
}

var inviscidFluxSpec = &Spec{
	Class: "InviscidFlux", New: func() cca.Component { return &InviscidFlux{} },
	Uses: []PortDecl{
		execUse, need("flux", FluxPortType),
		need("gasProperties", KeyValuePortType), need("states", StatesPortType),
	},
	Provides: []PortDecl{prov("patchRHS", PatchRHSPortType)},
}

// SetServices implements cca.Component.
func (iv *InviscidFlux) SetServices(svc cca.Services) error {
	iv.svc = svc
	return inviscidFluxSpec.register(svc, iv)
}

func (iv *InviscidFlux) solver() *euler.Solver {
	iv.once.Do(func() {
		sp, err := iv.svc.GetPort("states")
		if err != nil {
			panic(err)
		}
		iv.svc.ReleasePort("states")
		fp, err := iv.svc.GetPort("flux")
		if err != nil {
			panic(err)
		}
		iv.svc.ReleasePort("flux")
		gp, err := iv.svc.GetPort("gasProperties")
		if err != nil {
			panic(err)
		}
		iv.svc.ReleasePort("gasProperties")
		gamma, ok := gp.(KeyValuePort).Value("gamma")
		if !ok {
			gamma = euler.AirGamma
		}
		iv.solved = euler.Solver{
			Gas:    euler.Gas{Gamma: gamma},
			Flux:   fp.(FluxPort).Row,
			States: sp.(StatesPort).Row,
			// Nested parallelism: the integrator fans patches and strips
			// out; a region evaluated inside that epoch sweeps inline,
			// and only a top-level call (a level's single patch) fans
			// its rows out on the same pool.
			Pool: optionalPool(iv.svc),
		}
	})
	return &iv.solved
}

// EvalRegion implements PatchRHSPort: the flux divergence over a
// sub-box of the interior. Face fluxes are pure functions of the cells
// behind them, so disjoint regions reproduce a whole-patch sweep bit
// for bit. Safe for concurrent calls on disjoint regions.
func (iv *InviscidFlux) EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	iv.solver().RHSRegion(pd, out, region, dx, dy)
}

// CharacteristicQuantities determines the characteristic speeds for
// dynamic time-step control (paper Sec. 4.3).
type CharacteristicQuantities struct {
	svc cca.Services
	// scans keeps each level's scan scratch between steps.
	scans map[int]*dtScan
}

var characteristicsSpec = &Spec{
	Class: "CharacteristicQuantities", New: func() cca.Component { return &CharacteristicQuantities{} },
	Params:   map[string]Param{"cfl": fparam("0.45", 1e-3, 1)},
	Uses:     []PortDecl{execUse, need("gasProperties", KeyValuePortType)},
	Provides: []PortDecl{prov("characteristics", CharacteristicsPortType)},
}

// SetServices implements cca.Component.
func (cq *CharacteristicQuantities) SetServices(svc cca.Services) error {
	cq.svc = svc
	return characteristicsSpec.register(svc, cq)
}

// StableDt implements CharacteristicsPort: the CFL-limited step of a
// level, reduced across the cohort. Per-patch scans are independent
// and fan out over the pool; min is order-independent, so the parallel
// fold equals the serial one bit-for-bit.
func (cq *CharacteristicQuantities) StableDt(mesh MeshPort, name string, level int) float64 {
	gp, err := cq.svc.GetPort("gasProperties")
	if err != nil {
		panic(err)
	}
	cq.svc.ReleasePort("gasProperties")
	gamma, ok := gp.(KeyValuePort).Value("gamma")
	if !ok {
		gamma = euler.AirGamma
	}
	d := mesh.Field(name)
	sc := cq.scanFor(level, d.LocalPatches(level))
	sc.s = euler.Solver{Gas: euler.Gas{Gamma: gamma}, CFL: characteristicsSpec.Float(cq.svc.Parameters(), "cfl")}
	sc.dx, sc.dy = mesh.Spacing(level)
	optionalPool(cq.svc).ForEach(len(sc.patches), sc.scanFn)
	dt := math.Inf(1)
	for _, v := range sc.partial {
		if v < dt {
			dt = v
		}
	}
	if comm := cq.svc.Comm(); comm != nil && comm.Size() > 1 {
		dt = comm.AllreduceScalar(mpi.OpMin, dt)
	}
	return dt
}

// dtScan is one level's StableDt scratch: the per-patch partial minima
// and the pool body that fills them, a method value bound once per
// patch list.
type dtScan struct {
	patches []*field.PatchData
	partial []float64
	s       euler.Solver
	dx, dy  float64
	scanFn  func(w, i int)
}

// scan stores patch i's stable step.
func (sc *dtScan) scan(_, i int) {
	sc.partial[i] = sc.s.StableDt(sc.patches[i], sc.dx, sc.dy)
}

// scanFor returns the level's scan scratch, rebuilt when the level's
// patch list changed (a regrid).
func (cq *CharacteristicQuantities) scanFor(level int, patches []*field.PatchData) *dtScan {
	if cq.scans == nil {
		cq.scans = make(map[int]*dtScan)
	}
	sc := cq.scans[level]
	if sc == nil || !samePatches(sc.patches, patches) {
		sc = &dtScan{patches: patches, partial: make([]float64, len(patches))}
		sc.scanFn = sc.scan
		cq.scans[level] = sc
	}
	return sc
}

// BoundaryConditions sets the shock-tube walls: reflecting above and
// below, outflow left and right by default (paper Sec. 4.3).
// Parameters "xlo", "xhi", "ylo", "yhi" accept "outflow" or "reflect".
type BoundaryConditions struct {
	svc cca.Services
}

var boundaryConditionsSpec = &Spec{
	Class: "BoundaryConditions", New: func() cca.Component { return &BoundaryConditions{} },
	Params: map[string]Param{
		"xlo": eparam("outflow", "outflow", "reflect"),
		"xhi": eparam("outflow", "outflow", "reflect"),
		"ylo": eparam("reflect", "outflow", "reflect"),
		"yhi": eparam("reflect", "outflow", "reflect"),
	},
	Uses:     []PortDecl{need("mesh", MeshPortType)},
	Provides: []PortDecl{prov("bc", BCPortType)},
}

// SetServices implements cca.Component.
func (bc *BoundaryConditions) SetServices(svc cca.Services) error {
	bc.svc = svc
	return boundaryConditionsSpec.register(svc, bc)
}

// The normal-momentum component a reflecting wall flips, per wall
// orientation; shared read-only by every BCSpec Apply builds.
var (
	oddMx = []int{euler.IMx}
	oddMy = []int{euler.IMy}
)

func (bc *BoundaryConditions) spec(side string, odd []int) field.BCSpec {
	switch boundaryConditionsSpec.Str(bc.svc.Parameters(), side) {
	case "reflect":
		return field.BCSpec{Kind: field.BCReflect, OddComps: odd}
	default:
		return field.BCSpec{Kind: field.BCOutflow}
	}
}

// Apply implements BCPort for the conserved hydro field.
func (bc *BoundaryConditions) Apply(name string, level int) {
	mp, err := bc.svc.GetPort("mesh")
	if err != nil {
		panic(err)
	}
	bc.svc.ReleasePort("mesh")
	mesh := mp.(MeshPort)
	bcs := field.BCSet{
		field.XLo: bc.spec("xlo", oddMx),
		field.XHi: bc.spec("xhi", oddMx),
		field.YLo: bc.spec("ylo", oddMy),
		field.YHi: bc.spec("yhi", oddMy),
	}
	mesh.Field(name).ApplyPhysicalBCs(level, bcs)
}

// ProlongRestrict performs the cell-centered interpolations between
// levels (paper Sec. 4.3).
type ProlongRestrict struct{}

var prolongRestrictSpec = &Spec{
	Class: "ProlongRestrict", New: func() cca.Component { return &ProlongRestrict{} },
	Provides: []PortDecl{prov("prolongRestrict", ProlongRestrictPortType)},
}

// SetServices implements cca.Component.
func (pr *ProlongRestrict) SetServices(svc cca.Services) error {
	return prolongRestrictSpec.register(svc, pr)
}

// Prolong implements ProlongRestrictPort.
func (pr *ProlongRestrict) Prolong(mesh MeshPort, name string, level int) {
	mesh.Field(name).ProlongLevel(level, field.ProlongLinear)
}

// Restrict implements ProlongRestrictPort.
func (pr *ProlongRestrict) Restrict(mesh MeshPort, name string, level int) {
	mesh.Field(name).RestrictLevel(level)
}

// FillCoarseFine implements ProlongRestrictPort.
func (pr *ProlongRestrict) FillCoarseFine(mesh MeshPort, name string, level int) {
	mesh.Field(name).FillCoarseFineGhosts(level, field.ProlongLinear)
}

// ConicalInterfaceIC sets up the paper's shock-tube problem: Air and
// Freon (density ratio from the GasProperties database) separated by an
// oblique interface, ruptured by a rightward-moving shock of the given
// Mach number. Nondimensional units: pre-shock air has rho=1, p=1.
type ConicalInterfaceIC struct {
	svc cca.Services
}

var conicalInterfaceSpec = &Spec{
	Class: "ConicalInterfaceIC", New: func() cca.Component { return &ConicalInterfaceIC{} },
	Params: map[string]Param{
		"interfaceX": fparam("0.40", 0, 1),  // interface foot position as a fraction of Lx
		"angleDeg":   fparam("30", -85, 85), // interface angle from the vertical
		"shockX":     fparam("0.20", 0, 1),  // initial shock position fraction
	},
	Uses:     []PortDecl{need("gasProperties", KeyValuePortType)},
	Provides: []PortDecl{prov("ic", ICFieldPortType)},
}

// SetServices implements cca.Component.
func (ci *ConicalInterfaceIC) SetServices(svc cca.Services) error {
	ci.svc = svc
	return conicalInterfaceSpec.register(svc, ci)
}

// PostShockState returns the Rankine–Hugoniot state behind a Mach-M
// shock moving into still gas (rho1, p1).
func PostShockState(gamma, mach, rho1, p1 float64) euler.Primitive {
	c1 := math.Sqrt(gamma * p1 / rho1)
	m2 := mach * mach
	p2 := p1 * (1 + 2*gamma/(gamma+1)*(m2-1))
	rho2 := rho1 * (gamma + 1) * m2 / ((gamma-1)*m2 + 2)
	u2 := 2 * c1 / (gamma + 1) * (m2 - 1) / mach
	return euler.Primitive{Rho: rho2, U: u2, P: p2}
}

// Impose implements ICFieldPort on the conserved field.
func (ci *ConicalInterfaceIC) Impose(mesh MeshPort, name string) {
	gp, err := ci.svc.GetPort("gasProperties")
	if err != nil {
		panic(err)
	}
	ci.svc.ReleasePort("gasProperties")
	db := gp.(KeyValuePort)
	gamma, _ := db.Value("gamma")
	if gamma == 0 {
		gamma = euler.AirGamma
	}
	ratio := gasValue(db, "densityRatio")
	mach := gasValue(db, "mach")
	params := ci.svc.Parameters()
	ifaceX := conicalInterfaceSpec.Float(params, "interfaceX")
	angle := conicalInterfaceSpec.Float(params, "angleDeg") * math.Pi / 180
	shockX := conicalInterfaceSpec.Float(params, "shockX")

	g := euler.Gas{Gamma: gamma}
	air := euler.Primitive{Rho: 1, P: 1, Zeta: 0}
	freon := euler.Primitive{Rho: ratio, P: 1, Zeta: 1}
	post := PostShockState(gamma, mach, air.Rho, air.P)

	d := mesh.Field(name)
	h := d.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		dx, dy := mesh.Spacing(l)
		// Physical domain size (level-independent).
		LX := dx * float64(h.LevelDomain(l).Hi[0]+1)
		for _, pd := range d.LocalPatches(l) {
			gb := pd.GrownBox()
			for j := gb.Lo[1]; j <= gb.Hi[1]; j++ {
				for i := gb.Lo[0]; i <= gb.Hi[0]; i++ {
					x := (float64(i) + 0.5) * dx
					y := (float64(j) + 0.5) * dy
					var w euler.Primitive
					// Interface: x = ifaceX*LX + y*tan(angle).
					xi := ifaceX*LX + y*math.Tan(angle)
					switch {
					case x < shockX*LX:
						w = post
					case x < xi:
						w = air
					default:
						w = freon
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
