package components

import (
	"ccahydro/internal/cca"
	"ccahydro/internal/field"
)

// ExplicitIntegratorRK2 is the two-stage Runge–Kutta (Heun) time
// integrator of the shock assembly (paper Sec. 4.3). Boundary
// conditions are re-applied at each stage — the reason the paper makes
// BC granularity a patch, not a Data Object. The right-hand side comes
// through the "patchRHS" port (the InviscidFlux adaptor).
type ExplicitIntegratorRK2 struct {
	svc cca.Services
	// cache keeps the per-level rhs/save scratch patches alive between
	// steps; invalidated by patch-identity comparison after regrids.
	cache map[int]*rk2LevelCache
}

// rk2LevelCache is one level's reusable stage scratch, together with
// the per-patch pool bodies of the save copy and the two stage updates.
// The bodies are method values bound once per cache entry and read the
// step's dt from the entry, so a warm AdvanceLevel builds no closure.
type rk2LevelCache struct {
	patches []*field.PatchData
	rhs     []*field.PatchData
	save    []*field.PatchData
	strips  stripPlan

	ncomp              int
	dt                 float64
	saveFn, upd1, upd2 func(w, i int)
}

// saveOne copies patch i, ghosts included, into its save array.
func (lc *rk2LevelCache) saveOne(_, i int) {
	lc.save[i].CopyRegion(lc.patches[i], lc.patches[i].GrownBox())
}

// stage1 applies U1 = U + dt L(U) on patch i's interior.
func (lc *rk2LevelCache) stage1(_, i int) {
	pd, rhs, dt := lc.patches[i], lc.rhs[i], lc.dt
	b := pd.Interior()
	for k := 0; k < lc.ncomp; k++ {
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for ii := b.Lo[0]; ii <= b.Hi[0]; ii++ {
				pd.Set(k, ii, j, pd.At(k, ii, j)+dt*rhs.At(k, ii, j))
			}
		}
	}
}

// stage2 applies U^{n+1} = (U + U1 + dt L(U1)) / 2 on patch i's
// interior.
func (lc *rk2LevelCache) stage2(_, i int) {
	pd, rhs, save, dt := lc.patches[i], lc.rhs[i], lc.save[i], lc.dt
	b := pd.Interior()
	for k := 0; k < lc.ncomp; k++ {
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for ii := b.Lo[0]; ii <= b.Hi[0]; ii++ {
				un := 0.5*save.At(k, ii, j) +
					0.5*(pd.At(k, ii, j)+dt*rhs.At(k, ii, j))
				pd.Set(k, ii, j, un)
			}
		}
	}
}

var rk2Spec = &Spec{
	Class: "ExplicitIntegratorRK2", New: func() cca.Component { return &ExplicitIntegratorRK2{} },
	Uses:     []PortDecl{need("bc", BCPortType), execUse, need("patchRHS", PatchRHSPortType)},
	Provides: []PortDecl{prov("integrator", ExplicitIntegratorType)},
}

// SetServices implements cca.Component.
func (rk *ExplicitIntegratorRK2) SetServices(svc cca.Services) error {
	rk.svc = svc
	return rk2Spec.register(svc, rk)
}

// AdvanceLevel implements ExplicitIntegratorPort: one Heun step of size
// t1-t0 over the level (the caller supplies a CFL-stable interval).
// The ghost protocol between stages is collective and stays serial;
// each stage's per-patch flux evaluations and conservative updates are
// independent (own ghost-padded read array, own interior writes) and
// fan out over the execution pool.
func (rk *ExplicitIntegratorRK2) AdvanceLevel(mesh MeshPort, name string, level int, t0, t1 float64) error {
	if o := rk.svc.Observability(); o != nil {
		defer o.Span("hydro", obsLevelName("rk2.advance", level))()
	}
	rhsPort := rk2Spec.port(rk.svc, "patchRHS").(PatchRHSPort)
	bc := rk2Spec.port(rk.svc, "bc").(BCPort)
	d := mesh.Field(name)
	dx, dy := mesh.Spacing(level)
	dt := t1 - t0
	patches := d.LocalPatches(level)
	pool := optionalPool(rk.svc)

	if rk.cache == nil {
		rk.cache = make(map[int]*rk2LevelCache)
	}
	lc := rk.cache[level]
	if lc == nil || !samePatches(lc.patches, patches) {
		lc = &rk2LevelCache{
			patches: patches,
			rhs:     make([]*field.PatchData, len(patches)),
			save:    make([]*field.PatchData, len(patches)),
			ncomp:   d.NComp,
		}
		for i, pd := range patches {
			lc.rhs[i] = field.NewPatchData(pd.Patch, d.NComp, d.Ghost)
			lc.save[i] = field.NewPatchData(pd.Patch, d.NComp, d.Ghost)
		}
		lc.saveFn, lc.upd1, lc.upd2 = lc.saveOne, lc.stage1, lc.stage2
		rk.cache[level] = lc
	}
	lc.dt = dt
	pool.ForEach(len(patches), lc.saveFn)

	// The flux evaluation of each stage overlaps the seam exchange with
	// interior compute (evalLevelOverlapped), with the problem's BC
	// component (not GrACE's default) in the ghost protocol.
	gf := ghostFill{d: d, bc: bc, name: name, level: level}

	// Stage 1: U1 = U + dt L(U).
	evalLevelOverlapped(gf, patches, lc.rhs, dx, dy, pool, rhsPort, &lc.strips)
	pool.ForEach(len(patches), lc.upd1)

	// Stage 2: U^{n+1} = (U + U1 + dt L(U1)) / 2.
	evalLevelOverlapped(gf, patches, lc.rhs, dx, dy, pool, rhsPort, &lc.strips)
	pool.ForEach(len(patches), lc.upd2)
	gf.fill()
	return nil
}
