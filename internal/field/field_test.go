package field

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"ccahydro/internal/amr"
	"ccahydro/internal/mpi"
)

func TestPatchDataBasics(t *testing.T) {
	p := &amr.Patch{ID: 0, Box: amr.NewBox(2, 3, 5, 7)}
	pd := NewPatchData(p, 3, 2)
	if pd.GrownBox() != amr.NewBox(0, 1, 7, 9) {
		t.Errorf("grown = %v", pd.GrownBox())
	}
	pd.Set(1, 4, 5, 3.5)
	if pd.At(1, 4, 5) != 3.5 {
		t.Error("At/Set failed")
	}
	pd.Add(1, 4, 5, 0.5)
	if pd.At(1, 4, 5) != 4 {
		t.Error("Add failed")
	}
	pd.Fill(0, 7)
	if pd.At(0, 0, 1) != 7 || pd.At(0, 7, 9) != 7 {
		t.Error("Fill failed")
	}
	pd.FillAll(1)
	if pd.At(2, 3, 3) != 1 {
		t.Error("FillAll failed")
	}
	// Comp plane addressing matches At.
	plane := pd.Comp(1)
	pd.Set(1, 2, 3, -9)
	if plane[pd.Offset(2, 3)] != -9 {
		t.Error("Comp/Offset inconsistent with At")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	p := &amr.Patch{ID: 0, Box: amr.NewBox(0, 0, 9, 9)}
	src := NewPatchData(p, 2, 1)
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 2; c++ {
		plane := src.Comp(c)
		for i := range plane {
			plane[i] = rng.Float64()
		}
	}
	region := amr.NewBox(3, 4, 7, 8)
	buf := src.packAppend(region, nil)
	dst := NewPatchData(p, 2, 1)
	dst.unpack(region, buf)
	for c := 0; c < 2; c++ {
		for j := region.Lo[1]; j <= region.Hi[1]; j++ {
			for i := region.Lo[0]; i <= region.Hi[0]; i++ {
				if dst.At(c, i, j) != src.At(c, i, j) {
					t.Fatalf("mismatch at c=%d (%d,%d)", c, i, j)
				}
			}
		}
	}
	// Cells outside the region stay zero.
	if dst.At(0, 0, 0) != 0 {
		t.Error("unpack wrote outside region")
	}
}

func TestCopyRegion(t *testing.T) {
	pa := &amr.Patch{ID: 0, Box: amr.NewBox(0, 0, 4, 4)}
	pb := &amr.Patch{ID: 1, Box: amr.NewBox(5, 0, 9, 4)}
	a := NewPatchData(pa, 1, 1)
	b := NewPatchData(pb, 1, 1)
	a.Fill(0, 2)
	// Copy a's rightmost column into b's left ghost column.
	b.CopyRegion(a, amr.NewBox(4, 0, 4, 4))
	if b.At(0, 4, 2) != 2 {
		t.Error("ghost not copied")
	}
	if b.At(0, 5, 2) != 0 {
		t.Error("interior overwritten")
	}
}

// twoPatchHierarchy builds a 1-level hierarchy with two side-by-side
// patches on the given number of ranks.
func twoPatchHierarchy(ranks int) *amr.Hierarchy {
	return amr.NewHierarchy(amr.NewBox(0, 0, 19, 9), 2, 1, ranks)
}

func TestExchangeGhostsSerial(t *testing.T) {
	h := twoPatchHierarchy(2) // two patches, but serial (comm nil): both local
	d := New("u", h, 1, 2, nil)
	// Paint each patch with its owner-patch id + 1.
	for i, pd := range d.LocalPatches(0) {
		pd.Fill(0, 0)
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for ii := b.Lo[0]; ii <= b.Hi[0]; ii++ {
				pd.Set(0, ii, j, float64(i+1))
			}
		}
	}
	d.ExchangeGhosts(0)
	left := d.LocalPatches(0)[0]
	right := d.LocalPatches(0)[1]
	// Left patch spans x=0..9; its ghost at x=10,11 must hold 2.
	if left.At(0, 10, 5) != 2 || left.At(0, 11, 5) != 2 {
		t.Errorf("left ghosts = %v, %v", left.At(0, 10, 5), left.At(0, 11, 5))
	}
	if right.At(0, 9, 5) != 1 || right.At(0, 8, 5) != 1 {
		t.Errorf("right ghosts = %v, %v", right.At(0, 9, 5), right.At(0, 8, 5))
	}
	// Interiors untouched.
	if left.At(0, 9, 5) != 1 || right.At(0, 10, 5) != 2 {
		t.Error("interior corrupted by exchange")
	}
}

func TestExchangeGhostsParallelMatchesSerial(t *testing.T) {
	// Run the same exchange on 2 ranks and compare ghost contents.
	type probe struct{ l10, l11, r9, r8 float64 }
	results := make(map[int]probe)
	var mu sync.Mutex
	mpi.Run(2, mpi.ZeroModel, func(comm *mpi.Comm) {
		h := twoPatchHierarchy(2)
		d := New("u", h, 1, 2, comm)
		for _, pd := range d.LocalPatches(0) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for ii := b.Lo[0]; ii <= b.Hi[0]; ii++ {
					pd.Set(0, ii, j, float64(pd.Patch.Owner+1))
				}
			}
		}
		d.ExchangeGhosts(0)
		mu.Lock()
		defer mu.Unlock()
		for _, pd := range d.LocalPatches(0) {
			if pd.Patch.Owner == 0 {
				results[0] = probe{l10: pd.At(0, 10, 5), l11: pd.At(0, 11, 5)}
			} else {
				p := results[1]
				p.r9, p.r8 = pd.At(0, 9, 5), pd.At(0, 8, 5)
				results[1] = p
			}
		}
	})
	if results[0].l10 != 2 || results[0].l11 != 2 {
		t.Errorf("rank0 ghosts = %+v", results[0])
	}
	if results[1].r9 != 1 || results[1].r8 != 1 {
		t.Errorf("rank1 ghosts = %+v", results[1])
	}
}

// refinedHierarchy builds 2 levels: level 1 covers a centered region.
func refinedHierarchy() *amr.Hierarchy {
	h := amr.NewHierarchy(amr.NewBox(0, 0, 31, 31), 2, 2, 1)
	f := amr.NewFlagField(h.LevelDomain(0))
	f.SetBox(amr.NewBox(8, 8, 23, 23))
	h.Regrid([]*amr.FlagField{f}, amr.DefaultRegridOptions)
	return h
}

// fillAffine paints u = a + b*x + c*y with x, y the physical cell
// centers on the patch's level.
func fillAffine(d *DataObject, level int, a, b, c float64) {
	ratio := float64(int(1) << uint(level))
	dx := 1.0 / ratio
	for _, pd := range d.LocalPatches(level) {
		g := pd.GrownBox()
		for j := g.Lo[1]; j <= g.Hi[1]; j++ {
			for i := g.Lo[0]; i <= g.Hi[0]; i++ {
				x := (float64(i) + 0.5) * dx
				y := (float64(j) + 0.5) * dx
				pd.Set(0, i, j, a+b*x+c*y)
			}
		}
	}
}

func TestProlongLinearReproducesAffine(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 2, nil)
	fillAffine(d, 0, 1.0, 2.0, -3.0)
	d.ProlongLevel(1, ProlongLinear)
	dx1 := 0.5
	for _, pd := range d.LocalPatches(1) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				x := (float64(i) + 0.5) * dx1
				y := (float64(j) + 0.5) * dx1
				want := 1.0 + 2.0*x - 3.0*y
				if got := pd.At(0, i, j); math.Abs(got-want) > 1e-12 {
					t.Fatalf("prolong at (%d,%d): got %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

func TestProlongInjectionIsPiecewiseConstant(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 2, nil)
	// Coarse checkerboard.
	for _, pd := range d.LocalPatches(0) {
		g := pd.GrownBox()
		for j := g.Lo[1]; j <= g.Hi[1]; j++ {
			for i := g.Lo[0]; i <= g.Hi[0]; i++ {
				pd.Set(0, i, j, float64((i+j)%2))
			}
		}
	}
	d.ProlongLevel(1, ProlongInjection)
	for _, pd := range d.LocalPatches(1) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				ci, cj := i/2, j/2
				want := float64((ci + cj) % 2)
				if pd.At(0, i, j) != want {
					t.Fatalf("injection at (%d,%d) = %v, want %v", i, j, pd.At(0, i, j), want)
				}
			}
		}
	}
}

func TestRestrictAverages(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 2, nil)
	// Fine level: value = fine i index; coarse cell (ci) should get the
	// mean of its 4 children.
	for _, pd := range d.LocalPatches(1) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				pd.Set(0, i, j, float64(i))
			}
		}
	}
	d.RestrictLevel(1)
	fineRegion := h.Level(1).Patches[0].Box
	cbox := fineRegion.Coarsen(2)
	for _, pd := range d.LocalPatches(0) {
		ov := pd.Interior().Intersect(cbox)
		for j := ov.Lo[1]; j <= ov.Hi[1]; j++ {
			for i := ov.Lo[0]; i <= ov.Hi[0]; i++ {
				want := float64(2*i) + 0.5 // mean of fine columns 2i, 2i+1
				if got := pd.At(0, i, j); math.Abs(got-want) > 1e-12 {
					t.Fatalf("restrict at (%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

func TestRestrictProlongConservesConstant(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 2, nil)
	fillAffine(d, 0, 4.0, 0, 0)
	d.ProlongLevel(1, ProlongLinear)
	d.RestrictLevel(1)
	for _, pd := range d.LocalPatches(0) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				if math.Abs(pd.At(0, i, j)-4.0) > 1e-12 {
					t.Fatalf("constant not preserved at (%d,%d): %v", i, j, pd.At(0, i, j))
				}
			}
		}
	}
}

func TestFillCoarseFineGhosts(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 2, nil)
	fillAffine(d, 0, 0, 1, 0) // u = x on coarse
	// Zero the fine level; fill its ghosts from coarse.
	for _, pd := range d.LocalPatches(1) {
		pd.FillAll(0)
	}
	d.FillCoarseFineGhosts(1, ProlongLinear)
	pd := d.LocalPatches(1)[0]
	b := pd.Interior()
	// A ghost just left of the fine interior: x = (lo-1+0.5)*0.5.
	gi, gj := b.Lo[0]-1, (b.Lo[1]+b.Hi[1])/2
	want := (float64(gi) + 0.5) * 0.5
	if got := pd.At(0, gi, gj); math.Abs(got-want) > 1e-12 {
		t.Errorf("cf ghost = %v, want %v", got, want)
	}
	// Interior must remain zero.
	if pd.At(0, b.Lo[0], gj) != 0 {
		t.Error("interior touched by ghost fill")
	}
}

func TestRemapPreservesData(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 2, nil)
	fillAffine(d, 0, 1, 2, 3)
	d.ProlongLevel(1, ProlongLinear)

	// Regrid to a shifted fine region.
	h2 := amr.NewHierarchy(amr.NewBox(0, 0, 31, 31), 2, 2, 1)
	f := amr.NewFlagField(h2.LevelDomain(0))
	f.SetBox(amr.NewBox(10, 10, 25, 25))
	h2.Regrid([]*amr.FlagField{f}, amr.DefaultRegridOptions)

	nd := d.Remap(h2, ProlongLinear)
	// Coarse data must be identical; fine data affine-exact since the
	// source was affine.
	for _, pd := range nd.LocalPatches(0) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				x, y := float64(i)+0.5, float64(j)+0.5
				want := 1 + 2*x + 3*y
				if math.Abs(pd.At(0, i, j)-want) > 1e-12 {
					t.Fatalf("coarse remap at (%d,%d): %v want %v", i, j, pd.At(0, i, j), want)
				}
			}
		}
	}
	for _, pd := range nd.LocalPatches(1) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				x, y := (float64(i)+0.5)*0.5, (float64(j)+0.5)*0.5
				want := 1 + 2*x + 3*y
				if math.Abs(pd.At(0, i, j)-want) > 1e-10 {
					t.Fatalf("fine remap at (%d,%d): %v want %v", i, j, pd.At(0, i, j), want)
				}
			}
		}
	}
}

// Property: ghost exchange never modifies any interior cell.
func TestExchangeLeavesInteriorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := amr.NewHierarchy(amr.NewBox(0, 0, 15, 15), 2, 1, 4)
		d := New("u", h, 2, 1, nil)
		type cell struct {
			id, c, i, j int
			v           float64
		}
		var cells []cell
		d.ForEachLocal(func(pd *PatchData) {
			b := pd.Interior()
			for c := 0; c < 2; c++ {
				for j := b.Lo[1]; j <= b.Hi[1]; j++ {
					for i := b.Lo[0]; i <= b.Hi[0]; i++ {
						v := rng.Float64()
						pd.Set(c, i, j, v)
						cells = append(cells, cell{pd.Patch.ID, c, i, j, v})
					}
				}
			}
		})
		d.ExchangeGhosts(0)
		for _, cl := range cells {
			if d.Local(cl.id).At(cl.c, cl.i, cl.j) != cl.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// ---- boundary conditions ------------------------------------------------

func bcFixture() (*amr.Hierarchy, *DataObject) {
	h := amr.NewHierarchy(amr.NewBox(0, 0, 7, 7), 2, 1, 1)
	d := New("u", h, 2, 2, nil)
	pd := d.LocalPatches(0)[0]
	g := pd.GrownBox()
	for c := 0; c < 2; c++ {
		for j := g.Lo[1]; j <= g.Hi[1]; j++ {
			for i := g.Lo[0]; i <= g.Hi[0]; i++ {
				pd.Set(c, i, j, 100*float64(c)+float64(i)+10*float64(j))
			}
		}
	}
	return h, d
}

func TestBCOutflow(t *testing.T) {
	_, d := bcFixture()
	d.ApplyPhysicalBCs(0, UniformBC(BCSpec{Kind: BCOutflow}))
	pd := d.LocalPatches(0)[0]
	// Ghost at x=-1 copies interior x=0 value at the same j.
	if pd.At(0, -1, 3) != pd.At(0, 0, 3) || pd.At(0, -2, 3) != pd.At(0, 0, 3) {
		t.Error("outflow x-lo wrong")
	}
	if pd.At(1, 9, 4) != pd.At(1, 7, 4) {
		t.Error("outflow x-hi wrong")
	}
	if pd.At(0, 4, -1) != pd.At(0, 4, 0) || pd.At(0, 4, 9) != pd.At(0, 4, 7) {
		t.Error("outflow y wrong")
	}
}

func TestBCReflectWithOddComponent(t *testing.T) {
	_, d := bcFixture()
	spec := BCSpec{Kind: BCReflect, OddComps: []int{1}}
	d.ApplyPhysicalBCs(0, UniformBC(spec))
	pd := d.LocalPatches(0)[0]
	// Even component mirrors: ghost(-1) == interior(0), ghost(-2) == interior(1).
	if pd.At(0, -1, 3) != pd.At(0, 0, 3) || pd.At(0, -2, 3) != pd.At(0, 1, 3) {
		t.Error("reflect even wrong")
	}
	// Odd component flips sign.
	if pd.At(1, -1, 3) != -pd.At(1, 0, 3) {
		t.Error("reflect odd wrong")
	}
	if pd.At(1, 8, 3) != -pd.At(1, 7, 3) || pd.At(1, 9, 3) != -pd.At(1, 6, 3) {
		t.Error("reflect odd x-hi wrong")
	}
}

func TestBCDirichlet(t *testing.T) {
	_, d := bcFixture()
	d.ApplyPhysicalBCs(0, UniformBC(BCSpec{Kind: BCDirichlet, Value: -5}))
	pd := d.LocalPatches(0)[0]
	if pd.At(0, -1, 3) != -5 || pd.At(1, 4, 9) != -5 {
		t.Error("dirichlet wrong")
	}
}

func TestBCPeriodicSerial(t *testing.T) {
	_, d := bcFixture()
	d.ApplyPhysicalBCs(0, UniformBC(BCSpec{Kind: BCPeriodic}))
	pd := d.LocalPatches(0)[0]
	// Ghost at x=-1 wraps to interior x=7.
	if pd.At(0, -1, 3) != pd.At(0, 7, 3) {
		t.Errorf("periodic x-lo = %v, want %v", pd.At(0, -1, 3), pd.At(0, 7, 3))
	}
	if pd.At(0, 8, 3) != pd.At(0, 0, 3) {
		t.Error("periodic x-hi wrong")
	}
}

func TestBCMixedSides(t *testing.T) {
	_, d := bcFixture()
	bcs := BCSet{
		XLo: BCSpec{Kind: BCDirichlet, Value: 1},
		XHi: BCSpec{Kind: BCOutflow},
		YLo: BCSpec{Kind: BCReflect},
		YHi: BCSpec{Kind: BCDirichlet, Value: 2},
	}
	d.ApplyPhysicalBCs(0, bcs)
	pd := d.LocalPatches(0)[0]
	if pd.At(0, -1, 3) != 1 || pd.At(0, 4, 9) != 2 {
		t.Error("mixed dirichlet sides wrong")
	}
	if pd.At(0, 8, 3) != pd.At(0, 7, 3) {
		t.Error("mixed outflow wrong")
	}
	if pd.At(0, 4, -1) != pd.At(0, 4, 0) {
		t.Error("mixed reflect wrong")
	}
}

func TestBCOnlyAppliesAtDomainEdge(t *testing.T) {
	// With two patches, the interior seam must not be BC-filled.
	h := twoPatchHierarchy(2)
	d := New("u", h, 1, 1, nil)
	for _, pd := range d.LocalPatches(0) {
		pd.FillAll(3)
	}
	d.ApplyPhysicalBCs(0, UniformBC(BCSpec{Kind: BCDirichlet, Value: -1}))
	left := d.LocalPatches(0)[0]
	// Left patch's right ghost (x=10) is an interior seam: untouched.
	if left.At(0, 10, 5) != 3 {
		t.Error("BC wrote into interior seam ghost")
	}
	// Its left ghost (x=-1) is physical: filled.
	if left.At(0, -1, 5) != -1 {
		t.Error("BC missed physical ghost")
	}
}

func TestSideString(t *testing.T) {
	if XLo.String() != "x-lo" || YHi.String() != "y-hi" {
		t.Error("Side.String wrong")
	}
}

func TestLocalAccessors(t *testing.T) {
	h := refinedHierarchy()
	d := New("u", h, 1, 1, nil)
	if d.Hierarchy() != h {
		t.Error("Hierarchy accessor")
	}
	n := 0
	d.ForEachLocal(func(*PatchData) { n++ })
	want := 0
	for l := 0; l < h.NumLevels(); l++ {
		want += len(h.Level(l).Patches)
	}
	if n != want {
		t.Errorf("ForEachLocal visited %d, want %d", n, want)
	}
	if d.Local(-1) != nil {
		t.Error("Local(-1) should be nil")
	}
}
