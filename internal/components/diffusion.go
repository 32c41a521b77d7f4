package components

import (
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/field"
	"ccahydro/internal/transport"
)

// DRFMComponent wraps the transport-property package (the paper wraps
// the Fortran77 DRFM library the same way): mixture-averaged diffusion
// coefficients and conductivity through a TransportPort. The "mech"
// parameter must match the ThermoChemistry instance it serves.
type DRFMComponent struct {
	model *transport.Model
	// scratch recycles the X/D work vectors of MaxDiffusivity, which is
	// called per cell per CFL check — previously two fresh slices per
	// call. A sync.Pool keeps the port safe for concurrent callers.
	scratch sync.Pool
}

// drfmScratch is one caller's mole-fraction/diffusivity work pair.
type drfmScratch struct{ X, D []float64 }

var drfmSpec = &Spec{
	Class: "DRFMComponent", New: func() cca.Component { return &DRFMComponent{} },
	Params:   map[string]Param{"mech": mechParam},
	Provides: []PortDecl{prov("transport", TransportPortType)},
}

// SetServices implements cca.Component.
func (dc *DRFMComponent) SetServices(svc cca.Services) error {
	m, err := chem.ByName(drfmSpec.Str(svc.Parameters(), "mech"))
	if err != nil {
		return err
	}
	dc.model = transport.New(m)
	n := m.NumSpecies()
	dc.scratch.New = func() any {
		return &drfmScratch{X: make([]float64, n), D: make([]float64, n)}
	}
	return drfmSpec.register(svc, dc)
}

// Properties implements TransportPort.
func (dc *DRFMComponent) Properties(T, P float64, Y, X, D []float64) (float64, float64) {
	return dc.model.Evaluate(T, P, Y, X, D)
}

// MaxDiffusivity implements TransportPort: max over species
// diffusivities and thermal diffusivity at the state.
func (dc *DRFMComponent) MaxDiffusivity(T, P float64, Y []float64) float64 {
	mech := dc.model.Mechanism()
	ws := dc.scratch.Get().(*drfmScratch)
	lam, rho := dc.model.Evaluate(T, P, Y, ws.X, ws.D)
	maxD := lam / (rho * mech.CpMass(T, Y))
	for _, d := range ws.D {
		if d > maxD {
			maxD = d
		}
	}
	dc.scratch.Put(ws)
	return maxD
}

// DiffusionPhysics evaluates the diffusive transport source term
//
//	K ∇·(B ∇Φ),  K = (1/ρ){1/cp, 1, ..., 1},  B = {λ, ρD_1, ..., ρD_n}
//
// patch by patch (paper Eq. 3), with face-centered coefficients taken
// as arithmetic means of cell values. Field layout: [T, Y_0..Y_{n-1}];
// pressure is the constant "P" parameter (open-domain burning).
type DiffusionPhysics struct {
	svc cca.Services
	p0  float64

	// Ports resolve once (CCA: a connection is an interface value; a
	// call is one dispatch) so concurrent EvalRegion calls skip the
	// framework entirely.
	portsOnce sync.Once
	tp        TransportPort
	cp        ChemistryPort

	// scratch recycles one region evaluation's work arrays. EvalRegion is
	// reachable from several concurrent jobs (patch fan-out, and nested
	// loops under it), so the component must not hold mutable state —
	// each call draws a private scratch from the pool.
	scratch sync.Pool // of *diffScratch
}

// diffScratch is one EvalRegion call's working set: composition vectors
// plus the per-cell property cache, with all rhoD slices carved out of
// one backing array (the seed allocated a fresh slice per cell).
type diffScratch struct {
	xs, ds, Y []float64
	props     []cellProps
	rhoD      []float64
}

func (ds *diffScratch) size(nsp, ncells int) {
	if len(ds.xs) != nsp {
		ds.xs = make([]float64, nsp)
		ds.ds = make([]float64, nsp)
		ds.Y = make([]float64, nsp)
	}
	if cap(ds.props) < ncells {
		ds.props = make([]cellProps, ncells)
		ds.rhoD = make([]float64, ncells*nsp)
	}
	ds.props = ds.props[:ncells]
	for c := 0; c < ncells; c++ {
		ds.props[c].rhoD = ds.rhoD[c*nsp : (c+1)*nsp]
	}
}

var diffusionPhysicsSpec = &Spec{
	Class: "DiffusionPhysics", New: func() cca.Component { return &DiffusionPhysics{} },
	Params:   map[string]Param{"P": pressureParam},
	Uses:     []PortDecl{need("chemistry", ChemistryPortType), need("transport", TransportPortType)},
	Provides: []PortDecl{prov("patchRHS", PatchRHSPortType)},
}

// SetServices implements cca.Component.
func (dp *DiffusionPhysics) SetServices(svc cca.Services) error {
	dp.svc = svc
	dp.p0 = diffusionPhysicsSpec.Float(svc.Parameters(), "P")
	return diffusionPhysicsSpec.register(svc, dp)
}

func (dp *DiffusionPhysics) ports() (TransportPort, ChemistryPort) {
	dp.portsOnce.Do(func() {
		tp, err := dp.svc.GetPort("transport")
		if err != nil {
			panic(err)
		}
		dp.svc.ReleasePort("transport")
		cp, err := dp.svc.GetPort("chemistry")
		if err != nil {
			panic(err)
		}
		dp.svc.ReleasePort("chemistry")
		dp.tp, dp.cp = tp.(TransportPort), cp.(ChemistryPort)
	})
	return dp.tp, dp.cp
}

// cellProps evaluates (lambda, rho*D_i, rho, cp) at a cell.
type cellProps struct {
	lam  float64
	rhoD []float64
	rho  float64
	cp   float64
}

// EvalRegion implements PatchRHSPort. pd holds [T, Y...] with the
// ghosts region reads filled; out receives dPhi/dt over region, a
// sub-box of the interior. Properties are evaluated over the region
// grown by one cell (the stencil support); per-cell arithmetic is
// identical to a full-patch evaluation, so any disjoint partition of
// the interior reproduces it bit for bit. Safe for concurrent calls on
// disjoint regions.
func (dp *DiffusionPhysics) EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	if region.Empty() {
		return
	}
	tp, cp := dp.ports()
	mech := cp.Mechanism()
	nsp := mech.NumSpecies()
	b := region
	g := b.Grow(1)

	// Evaluate properties on the interior grown by one (the stencil
	// support), caching by cell.
	nxg, nyg := g.Size()
	ws, _ := dp.scratch.Get().(*diffScratch)
	if ws == nil {
		ws = &diffScratch{}
	}
	ws.size(nsp, nxg*nyg)
	props, Y := ws.props, ws.Y
	idx := func(i, j int) int { return (j-g.Lo[1])*nxg + (i - g.Lo[0]) }
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			T := pd.At(0, i, j)
			if T < 150 {
				T = 150
			}
			for k := 0; k < nsp; k++ {
				Y[k] = pd.At(1+k, i, j)
			}
			chem.NormalizeY(Y)
			lam, rho := tp.Properties(T, dp.p0, Y, ws.xs, ws.ds)
			pr := &props[idx(i, j)]
			pr.lam, pr.rho, pr.cp = lam, rho, mech.CpMass(T, Y)
			for k := 0; k < nsp; k++ {
				pr.rhoD[k] = rho * ws.ds[k]
			}
		}
	}

	invDx2 := 1 / (dx * dx)
	invDy2 := 1 / (dy * dy)
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			pc := &props[idx(i, j)]
			pe := &props[idx(i+1, j)]
			pw := &props[idx(i-1, j)]
			pn := &props[idx(i, j+1)]
			ps := &props[idx(i, j-1)]

			// Temperature: (1/(rho cp)) ∇·(λ∇T).
			tC := pd.At(0, i, j)
			div := (0.5*(pe.lam+pc.lam)*(pd.At(0, i+1, j)-tC)-
				0.5*(pc.lam+pw.lam)*(tC-pd.At(0, i-1, j)))*invDx2 +
				(0.5*(pn.lam+pc.lam)*(pd.At(0, i, j+1)-tC)-
					0.5*(pc.lam+ps.lam)*(tC-pd.At(0, i, j-1)))*invDy2
			out.Set(0, i, j, div/(pc.rho*pc.cp))

			// Species: (1/rho) ∇·(rho D_k ∇Y_k).
			for k := 0; k < nsp; k++ {
				yC := pd.At(1+k, i, j)
				divK := (0.5*(pe.rhoD[k]+pc.rhoD[k])*(pd.At(1+k, i+1, j)-yC)-
					0.5*(pc.rhoD[k]+pw.rhoD[k])*(yC-pd.At(1+k, i-1, j)))*invDx2 +
					(0.5*(pn.rhoD[k]+pc.rhoD[k])*(pd.At(1+k, i, j+1)-yC)-
						0.5*(pc.rhoD[k]+ps.rhoD[k])*(yC-pd.At(1+k, i, j-1)))*invDy2
				out.Set(1+k, i, j, divK/pc.rho)
			}
		}
	}
	dp.scratch.Put(ws)
}

// MaxDiffCoeffEvaluator scans the field for the largest diffusion
// coefficient so the explicit integrator can bound the spectral radius
// of the discrete diffusion operator (paper Sec. 4.2).
type MaxDiffCoeffEvaluator struct {
	svc cca.Services
	p0  float64
}

var maxDiffCoeffSpec = &Spec{
	Class: "MaxDiffCoeffEvaluator", New: func() cca.Component { return &MaxDiffCoeffEvaluator{} },
	Params: map[string]Param{"P": pressureParam},
	Uses: []PortDecl{
		need("chemistry", ChemistryPortType), execUse, need("transport", TransportPortType),
	},
	Provides: []PortDecl{prov("maxEigen", SpectralRadiusPortType)},
}

// SetServices implements cca.Component.
func (me *MaxDiffCoeffEvaluator) SetServices(svc cca.Services) error {
	me.svc = svc
	me.p0 = maxDiffCoeffSpec.Float(svc.Parameters(), "P")
	return maxDiffCoeffSpec.register(svc, me)
}

// MaxEigen implements SpectralRadiusPort: rho(J) <= 4 Dmax (1/dx^2 +
// 1/dy^2) for the 5-point diffusion stencil, maximized over levels.
// Sampling every 4th cell keeps the scan cheap; Dmax varies smoothly.
// In an SCMD cohort the result is allreduced so every rank agrees.
func (me *MaxDiffCoeffEvaluator) MaxEigen(mesh MeshPort, name string) float64 {
	tp, err := me.svc.GetPort("transport")
	if err != nil {
		panic(err)
	}
	me.svc.ReleasePort("transport")
	cp, err := me.svc.GetPort("chemistry")
	if err != nil {
		panic(err)
	}
	me.svc.ReleasePort("chemistry")
	mech := cp.(ChemistryPort).Mechanism()
	tport := tp.(TransportPort)
	nsp := mech.NumSpecies()

	// Flatten (level, patch) pairs and fan the scans out: each patch
	// reduces to a private partial maximum (max is order-independent, so
	// the parallel fold is bit-for-bit the serial result).
	d := mesh.Field(name)
	h := d.Hierarchy()
	type scanItem struct {
		pd   *field.PatchData
		geom float64
	}
	var items []scanItem
	for l := 0; l < h.NumLevels(); l++ {
		dx, dy := mesh.Spacing(l)
		geom := 4 * (1/(dx*dx) + 1/(dy*dy))
		for _, pd := range d.LocalPatches(l) {
			items = append(items, scanItem{pd, geom})
		}
	}
	pool := optionalPool(me.svc)
	partial := make([]float64, len(items))
	ys := make([][]float64, pool.Width())
	pool.ForEach(len(items), func(w, n int) {
		Y := ys[w]
		if Y == nil {
			Y = make([]float64, nsp)
			ys[w] = Y
		}
		it := items[n]
		b := it.pd.Interior()
		var m float64
		for j := b.Lo[1]; j <= b.Hi[1]; j += 4 {
			for i := b.Lo[0]; i <= b.Hi[0]; i += 4 {
				T := it.pd.At(0, i, j)
				if T < 150 {
					T = 150
				}
				for k := 0; k < nsp; k++ {
					Y[k] = it.pd.At(1+k, i, j)
				}
				chem.NormalizeY(Y)
				dmax := tport.MaxDiffusivity(T, me.p0, Y)
				if e := dmax * it.geom; e > m {
					m = e
				}
			}
		}
		partial[n] = m
	})
	var maxEig float64
	for _, m := range partial {
		if m > maxEig {
			maxEig = m
		}
	}
	if comm := me.svc.Comm(); comm != nil && comm.Size() > 1 {
		maxEig = comm.AllreduceScalar(mpiOpMax, maxEig)
	}
	return maxEig
}
