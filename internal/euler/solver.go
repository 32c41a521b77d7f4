package euler

import (
	"math"
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
)

// FluxFunc computes the interface flux of an x-sweep from limited
// left/right states — the port the GodunovFlux and EFMFlux components
// provide, and the seam the paper swaps for strong shocks.
type FluxFunc func(g Gas, l, r Primitive) Conserved

// Limiter limits a slope given backward and forward differences.
type Limiter func(a, b float64) float64

// MinMod is the classic diffusive limiter.
func MinMod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// MC is the monotonized-central limiter (sharper than minmod).
func MC(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	c := 0.5 * (a + b)
	lim := 2 * math.Min(math.Abs(a), math.Abs(b))
	if math.Abs(c) > lim {
		if c > 0 {
			return lim
		}
		return -lim
	}
	return c
}

// FirstOrder disables reconstruction (piecewise-constant states).
func FirstOrder(a, b float64) float64 { return 0 }

// StatesRow reconstructs the (left, right) states of a row of faces —
// the paper's States component seam, crossed once per row. Face
// f = 0..len(l)-1 lies between cells c0+f-1 and c0+f along dir, where
// c0 = (i0, j0): dir 0 walks i, dir 1 walks j (with u/v swapped so the
// x-flux machinery applies). l and r have equal length. Must be safe
// for concurrent calls on distinct output slices.
type StatesRow func(g Gas, pd *field.PatchData, i0, j0, dir int, l, r []Primitive)

// FluxRow computes f[k] = flux(l[k], r[k]) for a row of faces — the
// flux component seam, crossed once per row.
type FluxRow func(g Gas, l, r []Primitive, f []Conserved)

// RowFlux lifts a per-face flux kernel onto a row of faces.
func RowFlux(flux FluxFunc) FluxRow {
	return func(g Gas, l, r []Primitive, f []Conserved) {
		for k := range f {
			f[k] = flux(g, l[k], r[k])
		}
	}
}

// Solver advances the 2D Euler system on AMR patches. A Solver value
// with a nil or width-1 Pool is strictly serial; all methods are
// read-only on the Solver itself, so one Solver may serve concurrent
// RHSRegion calls on different patches.
type Solver struct {
	Gas  Gas
	Flux FluxRow
	// States reconstructs face states; defaults to MUSCLRow with the
	// Limiter field when nil. Must be safe for concurrent calls.
	States  StatesRow
	Limiter Limiter
	// CFL is the Courant number (default 0.45 when zero).
	CFL float64
	// Pool, when non-nil, fans the row/column sweeps of RHSRegion out
	// across workers whenever it would not run them inline. Rows (and
	// columns) write disjoint cells of out, and the sweep decomposition
	// is independent of worker count, so results are bit-for-bit
	// identical to the serial sweeps.
	Pool *exec.Pool
}

// NewSolver builds a second-order Godunov solver with MC limiting
// around a per-face flux kernel.
func NewSolver(gamma float64, flux FluxFunc) *Solver {
	return &Solver{Gas: Gas{Gamma: gamma}, Flux: RowFlux(flux), Limiter: MC, CFL: 0.45}
}

// MUSCLRow returns a StatesRow doing primitive-variable MUSCL
// reconstruction with the given limiter (see musclRow). The closure
// holds no mutable state, so it is safe for concurrent sweeps.
func MUSCLRow(lim Limiter) StatesRow {
	return func(g Gas, pd *field.PatchData, i0, j0, dir int, l, r []Primitive) {
		musclRow(lim, g, pd, i0, j0, dir, l, r)
	}
}

// musclRow is the MUSCL reconstruction of one row of faces. It slides
// a four-cell window along the row, so each cell's primitive state and
// limited slopes are computed once and shared by the two faces beside
// it. The left state of a face is the left cell's value plus half its
// slope, the right state the right cell's value minus half its slope,
// each floored at 1e-12 in density and pressure.
func musclRow(lim Limiter, g Gas, pd *field.PatchData, i0, j0, dir int, l, r []Primitive) {
	// load reads the primitive state of cell c0+o straight from the
	// component planes, where it sits at offset at+o*step.
	var plane [NumComp][]float64
	for k := range plane {
		plane[k] = pd.Comp(k)
	}
	at, step := pd.Offset(i0, j0), 1
	if dir == 1 {
		step = pd.Stride()
	}
	load := func(o int) Primitive {
		n := at + o*step
		w := g.ToPrimitive(Conserved{plane[IRho][n], plane[IMx][n], plane[IMy][n], plane[IE][n], plane[IZeta][n]})
		if dir == 1 {
			w = swapUV(w)
		}
		return w
	}
	// Face f sits between wm1 (cell f-1) and w0 (cell f); sm1 is the
	// slope of wm1, computed at the previous face.
	wm2, wm1, w0 := load(-2), load(-1), load(0)
	sm1 := slopes(lim, wm2, wm1, w0)
	for f := range l {
		wp1 := load(f + 1)
		s0 := slopes(lim, wm1, w0, wp1)
		l[f] = floorRhoP(Primitive{
			Rho:  wm1.Rho + 0.5*sm1.Rho,
			U:    wm1.U + 0.5*sm1.U,
			V:    wm1.V + 0.5*sm1.V,
			P:    wm1.P + 0.5*sm1.P,
			Zeta: wm1.Zeta + 0.5*sm1.Zeta,
		})
		r[f] = floorRhoP(Primitive{
			Rho:  w0.Rho - 0.5*s0.Rho,
			U:    w0.U - 0.5*s0.U,
			V:    w0.V - 0.5*s0.V,
			P:    w0.P - 0.5*s0.P,
			Zeta: w0.Zeta - 0.5*s0.Zeta,
		})
		wm1, w0, sm1 = w0, wp1, s0
	}
}

// slopes returns the limited slope of cell b between neighbours a and
// c, per primitive component.
func slopes(lim Limiter, a, b, c Primitive) Primitive {
	return Primitive{
		Rho:  lim(b.Rho-a.Rho, c.Rho-b.Rho),
		U:    lim(b.U-a.U, c.U-b.U),
		V:    lim(b.V-a.V, c.V-b.V),
		P:    lim(b.P-a.P, c.P-b.P),
		Zeta: lim(b.Zeta-a.Zeta, c.Zeta-b.Zeta),
	}
}

// floorRhoP floors a reconstructed state's density and pressure at
// 1e-12.
func floorRhoP(w Primitive) Primitive {
	if w.Rho < 1e-12 {
		w.Rho = 1e-12
	}
	if w.P < 1e-12 {
		w.P = 1e-12
	}
	return w
}

// primAt loads the primitive state at cell (i, j) of a conserved-data
// patch.
func (s *Solver) primAt(pd *field.PatchData, i, j int) Primitive {
	var u Conserved
	for k := 0; k < NumComp; k++ {
		u[k] = pd.At(k, i, j)
	}
	return s.Gas.ToPrimitive(u)
}

// serialPool backs RHSRegion when the Solver has no Pool: width 1, so
// every sweep runs inline.
var serialPool = exec.NewPool(1)

// sweep is the scratch of one row or column: its face states and
// fluxes.
type sweep struct {
	l, r []Primitive
	f    []Conserved
}

// sweepPool recycles sweep scratch across RHSRegion calls. A sync.Pool
// (rather than solver-held scratch) keeps Solver values copyable and
// the kernel safe under nested parallelism, where one shared Solver
// serves several concurrent patch evaluations.
var sweepPool = sync.Pool{New: func() any { return new(sweep) }}

// getSweep returns pooled scratch for n faces.
func getSweep(n int) *sweep {
	sw := sweepPool.Get().(*sweep)
	if cap(sw.f) < n {
		sw.l, sw.r, sw.f = make([]Primitive, n), make([]Primitive, n), make([]Conserved, n)
	}
	sw.l, sw.r, sw.f = sw.l[:n], sw.r[:n], sw.f[:n]
	return sw
}

// smallRegionCells bounds the regions RHSRegion always sweeps on the
// calling goroutine, whatever the Pool: a few rows are not worth an
// epoch, and a boundary-strip segment (at most 8 cells) must never
// start one when it finds the pool idle.
const smallRegionCells = 64

// RHSRegion writes dU/dt = -dF/dx - dG/dy into out over region, a
// sub-box of pd's interior; the patch's ghost cells (2 layers) must be
// filled beforehand. Each face flux is a pure function of the four
// stencil cells behind it, so fluxes on a region boundary are
// recomputed identically to a full-patch sweep and any disjoint
// partition of the interior reproduces the whole-interior sweep bit
// for bit. Cells of region must stay at least
// two cells from data the caller considers unfilled (the MUSCL stencil
// reads ±2 in the sweep direction).
//
// The x sweep sets out row by row, then the y sweep adds column by
// column. Where the Pool would run a sweep on the calling goroutine
// (width 1, or a call nested inside a running epoch — every region of
// a fanned-out level advance), and for every region of at most
// smallRegionCells cells, the sweep is a plain method call over all its
// rows or columns and nothing is allocated. Otherwise rows and
// columns fan out across the Pool's workers; each writes its own cells
// of out, and ForEachChunk returns only after every row is done, so
// y-sweep Adds always see completed x-sweep Sets. Both paths run the
// same two sweep methods, and each row's arithmetic does not depend on
// which chunk holds it, so every path is bit-for-bit the serial one.
func (s *Solver) RHSRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	if region.Empty() {
		return
	}
	nx, ny := region.Size()
	invDx, invDy := 1/dx, 1/dy
	pool := s.Pool
	if pool == nil || region.NumCells() <= smallRegionCells {
		pool = serialPool
	}
	if pool.RunsInline(ny) {
		s.sweepX(pd, out, region, invDx, 0, ny)
	} else {
		pool.ForEachChunk(ny, func(_, lo, hi int) { s.sweepX(pd, out, region, invDx, lo, hi) })
	}
	if pool.RunsInline(nx) {
		s.sweepY(pd, out, region, invDy, 0, nx)
	} else {
		pool.ForEachChunk(nx, func(_, lo, hi int) { s.sweepY(pd, out, region, invDy, lo, hi) })
	}
}

// states reconstructs one row of face states through the States seam,
// or MUSCL with the Limiter field when no seam is set.
func (s *Solver) states(pd *field.PatchData, i0, j0, dir int, l, r []Primitive) {
	if s.States != nil {
		s.States(s.Gas, pd, i0, j0, dir, l, r)
		return
	}
	musclRow(s.Limiter, s.Gas, pd, i0, j0, dir, l, r)
}

// sweepX sets out to the x-flux divergence on rows [lo, hi) of b
// (counted from b.Lo[1]): one States and one Flux crossing per row,
// nx+1 faces each.
func (s *Solver) sweepX(pd, out *field.PatchData, b amr.Box, invDx float64, lo, hi int) {
	nx, _ := b.Size()
	sw := getSweep(nx + 1)
	fx := sw.f
	for jj := lo; jj < hi; jj++ {
		j := b.Lo[1] + jj
		s.states(pd, b.Lo[0], j, 0, sw.l, sw.r)
		s.Flux(s.Gas, sw.l, sw.r, fx)
		for ii := 0; ii < nx; ii++ {
			i := b.Lo[0] + ii
			for k := 0; k < NumComp; k++ {
				out.Set(k, i, j, -(fx[ii+1][k]-fx[ii][k])*invDx)
			}
		}
	}
	sweepPool.Put(sw)
}

// sweepY adds the y-flux divergence to out on columns [lo, hi) of b
// (counted from b.Lo[0]): one crossing each per column.
func (s *Solver) sweepY(pd, out *field.PatchData, b amr.Box, invDy float64, lo, hi int) {
	_, ny := b.Size()
	sw := getSweep(ny + 1)
	fy := sw.f
	for ii := lo; ii < hi; ii++ {
		i := b.Lo[0] + ii
		s.states(pd, i, b.Lo[1], 1, sw.l, sw.r)
		s.Flux(s.Gas, sw.l, sw.r, fy)
		for f := range fy {
			fy[f] = swapFlux(fy[f])
		}
		for jj := 0; jj < ny; jj++ {
			j := b.Lo[1] + jj
			for k := 0; k < NumComp; k++ {
				out.Add(k, i, j, -(fy[jj+1][k]-fy[jj][k])*invDy)
			}
		}
	}
	sweepPool.Put(sw)
}

// StableDt returns the CFL-limited time step for one patch.
func (s *Solver) StableDt(pd *field.PatchData, dx, dy float64) float64 {
	cfl := s.CFL
	if cfl <= 0 {
		cfl = 0.45
	}
	b := pd.Interior()
	minDt := math.Inf(1)
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			w := s.primAt(pd, i, j)
			sx, sy := s.Gas.MaxWaveSpeed(w)
			dt := 1 / (sx/dx + sy/dy)
			if dt < minDt {
				minDt = dt
			}
		}
	}
	return cfl * minDt
}

// Circulation computes Γ = Σ ω dA over interior cells whose zeta lies
// in (zlo, zhi) — the interfacial circulation diagnostic of the paper's
// Fig 7 (ω = ∂v/∂x − ∂u/∂y by central differences; ghosts must be
// filled).
func (s *Solver) Circulation(pd *field.PatchData, dx, dy, zlo, zhi float64) float64 {
	b := pd.Interior()
	var gamma float64
	vel := func(i, j int) (float64, float64) {
		rho := pd.At(IRho, i, j)
		if rho < 1e-12 {
			rho = 1e-12
		}
		return pd.At(IMx, i, j) / rho, pd.At(IMy, i, j) / rho
	}
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			z := pd.At(IZeta, i, j) / math.Max(pd.At(IRho, i, j), 1e-12)
			if z < zlo || z > zhi {
				continue
			}
			_, vE := vel(i+1, j)
			_, vW := vel(i-1, j)
			uN, _ := vel(i, j+1)
			uS, _ := vel(i, j-1)
			om := (vE-vW)/(2*dx) - (uN-uS)/(2*dy)
			gamma += om * dx * dy
		}
	}
	return gamma
}
