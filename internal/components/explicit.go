package components

import (
	"fmt"

	"ccahydro/internal/cca"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
	"ccahydro/internal/rkc"
)

// mpiOpMax aliases the reduction op to keep diffusion.go import-light.
const mpiOpMax = mpi.OpMax

// ExplicitIntegrator is the Runge–Kutta–Chebyshev time integrator of
// the Explicit Integration subsystem: it advances a Data Object level
// over a time interval, pulling the right-hand side one patch at a
// time through its "patchRHS" uses port and bounding the stable step
// with the "maxEigen" port (paper Sec. 4.2). Parameters: "rtol",
// "atol" (RKC error control).
//
// The level's patches are flattened into one state vector per rank;
// every RHS evaluation performs the full ghost protocol (BCs,
// coarse–fine fill, exchange) so the cohort stays synchronized —
// which is why the port contract says integrators act on Data Objects
// "in a synchronized manner".
type ExplicitIntegrator struct {
	svc cca.Services
	// cache holds per-level integration scratch (RHS patches, flat
	// vectors, the RKC solver) so repeated AdvanceLevel calls on an
	// unchanged hierarchy allocate nothing; invalidated by regrids
	// through patch-identity comparison.
	cache map[int]*eiLevelCache
}

// eiLevelCache is one level's reusable integration state.
type eiLevelCache struct {
	patches []*field.PatchData
	rhsData []*field.PatchData
	offs    []int // flat-vector offset of each patch's block
	lv      *levelVector
	solver  *rkc.Solver
	y0      []float64
	strips  stripPlan
}

var explicitIntegratorSpec = &Spec{
	Class: "ExplicitIntegrator", New: func() cca.Component { return &ExplicitIntegrator{} },
	Params: map[string]Param{"rtol": fparam("1e-5", 0, 1), "atol": fparam("1e-8", 0, 1)},
	Uses: []PortDecl{
		execUse, need("maxEigen", SpectralRadiusPortType), need("patchRHS", PatchRHSPortType),
	},
	Provides: []PortDecl{prov("integrator", ExplicitIntegratorType)},
}

// SetServices implements cca.Component.
func (ei *ExplicitIntegrator) SetServices(svc cca.Services) error {
	ei.svc = svc
	return explicitIntegratorSpec.register(svc, ei)
}

// samePatches reports whether the cached patch list is still the live
// one (patch data pointers are stable between regrids).
func samePatches(a, b []*field.PatchData) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// levelVector flattens the interiors of a level's local patches into a
// single vector and back.
type levelVector struct {
	patches []*field.PatchData
	sizes   []int
	ncomp   int
}

func newLevelVector(patches []*field.PatchData, ncomp int) *levelVector {
	lv := &levelVector{patches: patches, ncomp: ncomp}
	for _, pd := range patches {
		lv.sizes = append(lv.sizes, ncomp*pd.Interior().NumCells())
	}
	return lv
}

func (lv *levelVector) dim() int {
	n := 0
	for _, s := range lv.sizes {
		n += s
	}
	return n
}

// scatterPatch writes patch p's block of the flat vector (starting at
// offset o) into the patch interior. Blocks are disjoint, so patches
// scatter in parallel.
func (lv *levelVector) scatterPatch(p, o int, in []float64) {
	pd := lv.patches[p]
	b := pd.Interior()
	for c := 0; c < lv.ncomp; c++ {
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				pd.Set(c, i, j, in[o])
				o++
			}
		}
	}
}

// gatherFrom reads src's interior (any patch data over the same box as
// patch p) into the flat vector at offset o.
func (lv *levelVector) gatherFrom(p, o int, src *field.PatchData, out []float64) {
	b := lv.patches[p].Interior()
	for c := 0; c < lv.ncomp; c++ {
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				out[o] = src.At(c, i, j)
				o++
			}
		}
	}
}

// AdvanceLevel implements ExplicitIntegratorPort. Each RHS evaluation
// performs the collective ghost protocol serially (the cohort must stay
// synchronized), then fans the independent per-region EvalRegion calls
// and the ydot gather out over the execution pool — patches read their
// own ghost-padded arrays and write their own disjoint blocks of the
// flat vector, so the parallel sweep is race-free and, because block
// offsets are fixed, bit-for-bit identical to the serial sweep.
func (ei *ExplicitIntegrator) AdvanceLevel(mesh MeshPort, name string, level int, t0, t1 float64) error {
	o := ei.svc.Observability()
	if o != nil {
		defer o.Span("rkc", obsLevelName("rkc.advance", level))()
	}
	rhsPort := explicitIntegratorSpec.port(ei.svc, "patchRHS").(PatchRHSPort)
	eigPort := explicitIntegratorSpec.port(ei.svc, "maxEigen").(SpectralRadiusPort)
	d := mesh.Field(name)
	patches := d.LocalPatches(level)
	dx, dy := mesh.Spacing(level)
	comm := ei.svc.Comm()
	pool := optionalPool(ei.svc)

	if ei.cache == nil {
		ei.cache = make(map[int]*eiLevelCache)
	}
	lc := ei.cache[level]
	if lc == nil || !samePatches(lc.patches, patches) {
		lc = &eiLevelCache{patches: patches}
		lc.lv = newLevelVector(patches, d.NComp)
		lc.rhsData = make([]*field.PatchData, len(patches))
		lc.offs = make([]int, len(patches))
		o := 0
		for i, pd := range patches {
			lc.rhsData[i] = field.NewPatchData(pd.Patch, d.NComp, d.Ghost)
			lc.offs[i] = o
			o += lc.lv.sizes[i]
		}
		lc.y0 = make([]float64, lc.lv.dim())
		ei.cache[level] = lc
	}
	lv := lc.lv
	dim := lv.dim()

	// The ghost protocol applies the mesh's own physical BCs (the flame
	// wires no BC component); only GrACEComponent provides MeshPort.
	gf := ghostFill{d: d, bc: mesh.(*GrACEComponent), name: name, level: level}
	f := func(_ float64, y, ydot []float64) {
		if o != nil {
			defer o.Span("rkc", obsLevelName("rkc.stage", level))()
		}
		pool.ForEach(len(patches), func(_, i int) {
			lv.scatterPatch(i, lc.offs[i], y)
		})
		evalLevelOverlapped(gf, patches, lc.rhsData, dx, dy, pool, rhsPort, &lc.strips, comm)
		pool.ForEach(len(patches), func(_, i int) {
			lv.gatherFrom(i, lc.offs[i], lc.rhsData[i], ydot)
		})
	}

	// MaxEigen is allreduced inside the port, so the spectral radius —
	// and therefore the stage count — is identical on every rank.
	rho := func(_ float64, _ []float64) float64 {
		return eigPort.MaxEigen(mesh, name)
	}

	dt := t1 - t0
	opt := rkc.Options{
		RelTol:      explicitIntegratorSpec.Float(ei.svc.Parameters(), "rtol"),
		AbsTol:      explicitIntegratorSpec.Float(ei.svc.Parameters(), "atol"),
		InitialStep: dt,
		MaxStep:     dt,
		MaxStages:   1024,
	}
	if comm != nil && comm.Size() > 1 {
		// Combine the error norm across the cohort so every rank's
		// controller takes identical accept/reject and step decisions —
		// the collective ghost exchanges inside f then stay in lockstep.
		opt.CombineNorm = func(sumSq, n float64) (float64, float64) {
			out := comm.Allreduce(mpi.OpSum, []float64{sumSq, n})
			return out[0], out[1]
		}
	}
	if lc.solver == nil || lc.solver.N() != dim {
		lc.solver = rkc.New(dim, f, rho, opt)
	} else {
		lc.solver.SetProblem(f, rho)
		lc.solver.Reconfigure(opt)
	}
	s := lc.solver
	for i, pd := range patches {
		lv.gatherFrom(i, lc.offs[i], pd, lc.y0)
	}
	s.Init(t0, lc.y0)
	if err := s.Integrate(t1); err != nil {
		return fmt.Errorf("ExplicitIntegrator level %d: %w", level, err)
	}
	for i := range patches {
		lv.scatterPatch(i, lc.offs[i], s.Y())
	}
	gf.fill()
	return nil
}
