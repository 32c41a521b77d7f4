package euler

import (
	"math"
	"math/rand"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
)

// The per-face reconstruction below is the oracle for MUSCLRow: it
// rebuilds the four stencil states and the two limited slopes of every
// face from scratch, exactly as the solver did before the states seam
// moved to rows. MUSCLRow shares each cell's state and slopes between
// the two faces beside it and must reproduce this bit for bit.

// MUSCLStates returns the per-face reconstruction with the given
// limiter: the (left, right) states at the face between cells (i-1, j)
// and (i, j) for dir 0, or (i, j-1) and (i, j) for dir 1 (u/v swapped).
func MUSCLStates(lim Limiter) func(g Gas, pd *field.PatchData, i, j, dir int) (Primitive, Primitive) {
	return func(g Gas, pd *field.PatchData, i, j, dir int) (Primitive, Primitive) {
		s := Solver{Gas: g, Limiter: lim}
		return s.limitedPair(pd, i, j, dir)
	}
}

func (s *Solver) limitedPair(pd *field.PatchData, i, j, dir int) (Primitive, Primitive) {
	get := func(o int) Primitive {
		if dir == 0 {
			return s.primAt(pd, i+o, j)
		}
		return swapUV(s.primAt(pd, i, j+o))
	}
	wm2, wm1, w0, wp1 := get(-2), get(-1), get(0), get(1)
	slope := func(a, b, c float64) float64 { return s.Limiter(b-a, c-b) }
	l := Primitive{
		Rho:  wm1.Rho + 0.5*slope(wm2.Rho, wm1.Rho, w0.Rho),
		U:    wm1.U + 0.5*slope(wm2.U, wm1.U, w0.U),
		V:    wm1.V + 0.5*slope(wm2.V, wm1.V, w0.V),
		P:    wm1.P + 0.5*slope(wm2.P, wm1.P, w0.P),
		Zeta: wm1.Zeta + 0.5*slope(wm2.Zeta, wm1.Zeta, w0.Zeta),
	}
	r := Primitive{
		Rho:  w0.Rho - 0.5*slope(wm1.Rho, w0.Rho, wp1.Rho),
		U:    w0.U - 0.5*slope(wm1.U, w0.U, wp1.U),
		V:    w0.V - 0.5*slope(wm1.V, w0.V, wp1.V),
		P:    w0.P - 0.5*slope(wm1.P, w0.P, wp1.P),
		Zeta: w0.Zeta - 0.5*slope(wm1.Zeta, w0.Zeta, wp1.Zeta),
	}
	if l.Rho < 1e-12 {
		l.Rho = 1e-12
	}
	if r.Rho < 1e-12 {
		r.Rho = 1e-12
	}
	if l.P < 1e-12 {
		l.P = 1e-12
	}
	if r.P < 1e-12 {
		r.P = 1e-12
	}
	return l, r
}

// perFaceRHS is the oracle sweep: RHSRegion as it ran with one states
// and one flux evaluation per face.
func perFaceRHS(g Gas, lim Limiter, flux FluxFunc, pd, out *field.PatchData, b amr.Box, dx, dy float64) {
	states := MUSCLStates(lim)
	nx, ny := b.Size()
	fx := make([]Conserved, nx+1)
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for fi := 0; fi <= nx; fi++ {
			l, r := states(g, pd, b.Lo[0]+fi, j, 0)
			fx[fi] = flux(g, l, r)
		}
		for ii := 0; ii < nx; ii++ {
			for k := 0; k < NumComp; k++ {
				out.Set(k, b.Lo[0]+ii, j, -(fx[ii+1][k]-fx[ii][k])*(1/dx))
			}
		}
	}
	fy := make([]Conserved, ny+1)
	for i := b.Lo[0]; i <= b.Hi[0]; i++ {
		for fj := 0; fj <= ny; fj++ {
			l, r := states(g, pd, i, b.Lo[1]+fj, 1)
			fy[fj] = swapFlux(flux(g, l, r))
		}
		for jj := 0; jj < ny; jj++ {
			for k := 0; k < NumComp; k++ {
				out.Add(k, i, b.Lo[1]+jj, -(fy[jj+1][k]-fy[jj][k])*(1/dy))
			}
		}
	}
}

// overshoot is an unlimited, overshooting slope: it drives
// reconstructed densities and pressures negative next to jumps, so the
// 1e-12 floors on l and r are exercised.
func overshoot(a, b float64) float64 { return 3 * b }

// randomPatch fills an n×n patch and its two ghost layers with random
// states. About one cell in six is near vacuum: a density of 1e-14 to
// 1e-10, and for half of those an energy below the kinetic energy, so
// ToPrimitive's density and pressure floors both trigger.
func randomPatch(rng *rand.Rand, n int) *field.PatchData {
	pd := field.NewPatchData(&amr.Patch{Box: amr.NewBox(0, 0, n-1, n-1)}, NumComp, 2)
	gb := pd.GrownBox()
	for j := gb.Lo[1]; j <= gb.Hi[1]; j++ {
		for i := gb.Lo[0]; i <= gb.Hi[0]; i++ {
			w := Primitive{
				Rho:  0.1 + 5*rng.Float64(),
				U:    6*rng.Float64() - 3,
				V:    6*rng.Float64() - 3,
				P:    0.05 + 10*rng.Float64(),
				Zeta: rng.Float64(),
			}
			u := gas.ToConserved(w)
			if rng.Intn(6) == 0 {
				u[IRho] = math.Pow(10, -14+4*rng.Float64())
				if rng.Intn(2) == 0 {
					u[IE] = -rng.Float64()
				}
			}
			for k := 0; k < NumComp; k++ {
				pd.Set(k, i, j, u[k])
			}
		}
	}
	return pd
}

func samePrim(a, b Primitive) bool {
	return math.Float64bits(a.Rho) == math.Float64bits(b.Rho) &&
		math.Float64bits(a.U) == math.Float64bits(b.U) &&
		math.Float64bits(a.V) == math.Float64bits(b.V) &&
		math.Float64bits(a.P) == math.Float64bits(b.P) &&
		math.Float64bits(a.Zeta) == math.Float64bits(b.Zeta)
}

// TestMUSCLRowMatchesPerFace: for every limiter, both sweep directions
// and every row (whole and partial, as region sweeps cut them) of a
// random patch with near-vacuum cells, MUSCLRow reproduces the per-face
// reconstruction bit for bit, floors included.
func TestMUSCLRowMatchesPerFace(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	limiters := []struct {
		name string
		lim  Limiter
	}{{"mc", MC}, {"minmod", MinMod}, {"first", FirstOrder}, {"overshoot", overshoot}}
	for trial := 0; trial < 4; trial++ {
		pd := randomPatch(rng, n)
		for _, lc := range limiters {
			row, face := MUSCLRow(lc.lim), MUSCLStates(lc.lim)
			floors := 0
			for dir := 0; dir < 2; dir++ {
				for line := 0; line < n; line++ {
					// Rows start at any interior cell and run to any
					// face up to the far interior edge.
					for start := 0; start < n; start++ {
						for faces := 1; start+faces <= n+1; faces += 3 {
							i0, j0 := start, line
							if dir == 1 {
								i0, j0 = line, start
							}
							l, r := make([]Primitive, faces), make([]Primitive, faces)
							row(gas, pd, i0, j0, dir, l, r)
							for f := range l {
								i, j := i0+f, j0
								if dir == 1 {
									i, j = i0, j0+f
								}
								wl, wr := face(gas, pd, i, j, dir)
								if !samePrim(l[f], wl) || !samePrim(r[f], wr) {
									t.Fatalf("%s dir %d row (%d,%d) face %d: row (%v, %v), per face (%v, %v)",
										lc.name, dir, i0, j0, f, l[f], r[f], wl, wr)
								}
								if wl.Rho == 1e-12 || wr.Rho == 1e-12 || wl.P == 1e-12 || wr.P == 1e-12 {
									floors++
								}
							}
						}
					}
				}
			}
			if floors == 0 {
				t.Errorf("%s: no face state sat on the 1e-12 floor; the near-vacuum cells did not reach it", lc.name)
			}
		}
	}
}

// TestRHSRegionMatchesPerFaceSweep: the row-crossing RHSRegion equals
// the per-face sweep bit for bit on the whole interior and on a
// partition into sub-regions.
func TestRHSRegionMatchesPerFaceSweep(t *testing.T) {
	const n = 12
	pd := randomPatch(rand.New(rand.NewSource(11)), n)
	regions := [][]amr.Box{
		{pd.Interior()},
		{amr.NewBox(0, 0, 1, n-1), amr.NewBox(2, 0, n-3, 1), amr.NewBox(2, 2, n-3, n-1), amr.NewBox(n-2, 0, n-1, n-1)},
	}
	for _, flux := range []struct {
		name string
		fn   FluxFunc
	}{{"godunov", GodunovFlux}, {"hllc", HLLCFlux}, {"efm", EFMFlux}} {
		s := NewSolver(1.4, flux.fn)
		for _, part := range regions {
			got := field.NewPatchData(pd.Patch, NumComp, 2)
			want := field.NewPatchData(pd.Patch, NumComp, 2)
			for _, b := range part {
				s.RHSRegion(pd, got, b, 0.1, 0.2)
				perFaceRHS(s.Gas, s.Limiter, flux.fn, pd, want, b, 0.1, 0.2)
			}
			ib := pd.Interior()
			for k := 0; k < NumComp; k++ {
				for j := ib.Lo[1]; j <= ib.Hi[1]; j++ {
					for i := ib.Lo[0]; i <= ib.Hi[0]; i++ {
						if g, w := got.At(k, i, j), want.At(k, i, j); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s, %d regions: out[%d](%d,%d) = %v, per face %v", flux.name, len(part), k, i, j, g, w)
						}
					}
				}
			}
		}
	}
}

// TestRHSPatchNestedPoolMatchesSerial: one pooled Solver serves several
// patches at once, each fanning its rows and columns out on the same
// pool, so concurrent sweeps share the pooled scratch. Every patch
// matches a serial sweep bit for bit (and the race detector watches the
// scratch).
func TestRHSPatchNestedPoolMatchesSerial(t *testing.T) {
	const n, patches = 12, 4
	rng := rand.New(rand.NewSource(5))
	pds := make([]*field.PatchData, patches)
	for p := range pds {
		pds[p] = randomPatch(rng, n)
	}
	serial := NewSolver(1.4, GodunovFlux)
	pooled := NewSolver(1.4, GodunovFlux)
	pooled.Pool = exec.NewPool(4)
	got := make([]*field.PatchData, patches)
	pooled.Pool.ForEachChunk(patches, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			got[p] = field.NewPatchData(pds[p].Patch, NumComp, 2)
			pooled.RHSRegion(pds[p], got[p], pds[p].Interior(), 0.1, 0.2)
		}
	})
	for p, pd := range pds {
		want := field.NewPatchData(pd.Patch, NumComp, 2)
		serial.RHSRegion(pd, want, pd.Interior(), 0.1, 0.2)
		ib := pd.Interior()
		for k := 0; k < NumComp; k++ {
			for j := ib.Lo[1]; j <= ib.Hi[1]; j++ {
				for i := ib.Lo[0]; i <= ib.Hi[0]; i++ {
					if g, w := got[p].At(k, i, j), want.At(k, i, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("patch %d out[%d](%d,%d) = %v pooled, %v serial", p, k, i, j, g, w)
					}
				}
			}
		}
	}
}

// TestRHSRegionPathsBitIdentical: RHSRegion on a width-1 pool, as a
// top-level call on a width-2 pool (rows and columns fan out), and
// nested inside a running epoch of that pool (sweeps run inline as
// plain calls) writes identical out arrays. The width-1 and nested
// calls allocate nothing.
func TestRHSRegionPathsBitIdentical(t *testing.T) {
	const n = 16
	pd := randomPatch(rand.New(rand.NewSource(17)), n)
	region := amr.NewBox(1, 2, n-2, n-1)
	serial := NewSolver(1.4, GodunovFlux)
	serial.Pool = exec.NewPool(1)
	pooled := NewSolver(1.4, GodunovFlux)
	pooled.Pool = exec.NewPool(2)

	want := field.NewPatchData(pd.Patch, NumComp, 2)
	serial.RHSRegion(pd, want, region, 0.1, 0.2)

	if pooled.Pool.RunsInline(n) {
		t.Fatal("an idle width-2 pool reports it would run inline")
	}
	top := field.NewPatchData(pd.Patch, NumComp, 2)
	pooled.RHSRegion(pd, top, region, 0.1, 0.2)

	nestedOut := field.NewPatchData(pd.Patch, NumComp, 2)
	inline := true
	nested := func(w, _, _ int) {
		if w == 0 {
			inline = inline && pooled.Pool.RunsInline(n)
			pooled.RHSRegion(pd, nestedOut, region, 0.1, 0.2)
		}
	}
	pooled.Pool.ForEachChunk(2, nested)
	if !inline {
		t.Fatal("a call inside a running epoch reports it would fan out")
	}

	// A boundary-strip-sized region on an idle width-2 pool, with no
	// epoch in flight, still runs inline.
	small := amr.NewBox(3, 5, 4, 8)
	wantSmall := field.NewPatchData(pd.Patch, NumComp, 2)
	serial.RHSRegion(pd, wantSmall, small, 0.1, 0.2)
	smallOut := field.NewPatchData(pd.Patch, NumComp, 2)
	pooled.RHSRegion(pd, smallOut, small, 0.1, 0.2)

	for _, got := range []struct {
		name      string
		out, want *field.PatchData
	}{{"top-level width 2", top, want}, {"nested", nestedOut, want}, {"small region width 2", smallOut, wantSmall}} {
		for k, v := range got.out.RawData() {
			if w := got.want.RawData()[k]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: word %d = %v, width 1 wrote %v", got.name, k, v, w)
			}
		}
	}

	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	if a := testing.AllocsPerRun(20, func() { serial.RHSRegion(pd, want, region, 0.1, 0.2) }); a != 0 {
		t.Errorf("width-1 RHSRegion allocates %v objects per call", a)
	}
	if a := testing.AllocsPerRun(20, func() { pooled.Pool.ForEachChunk(2, nested) }); a != 0 {
		t.Errorf("nested RHSRegion allocates %v objects per epoch", a)
	}
	if a := testing.AllocsPerRun(20, func() { pooled.RHSRegion(pd, smallOut, small, 0.1, 0.2) }); a != 0 {
		t.Errorf("small-region RHSRegion on an idle width-2 pool allocates %v objects per call", a)
	}
}
