package amr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox(0, 0, 9, 4)
	nx, ny := b.Size()
	if nx != 10 || ny != 5 || b.NumCells() != 50 {
		t.Errorf("size = (%d,%d), cells = %d", nx, ny, b.NumCells())
	}
	if b.Empty() {
		t.Error("non-empty box reported empty")
	}
	if !b.Contains(0, 0) || !b.Contains(9, 4) || b.Contains(10, 0) || b.Contains(0, 5) {
		t.Error("Contains wrong at corners")
	}
}

func TestBoxEmpty(t *testing.T) {
	e := NewBox(5, 5, 4, 9)
	if !e.Empty() || e.NumCells() != 0 {
		t.Error("inverted box should be empty")
	}
	one := NewBox(3, 3, 3, 3)
	if one.Empty() || one.NumCells() != 1 {
		t.Error("single-cell box misclassified")
	}
}

func TestIntersect(t *testing.T) {
	a := NewBox(0, 0, 9, 9)
	b := NewBox(5, 5, 14, 14)
	ov := a.Intersect(b)
	if ov != NewBox(5, 5, 9, 9) {
		t.Errorf("intersect = %v", ov)
	}
	c := NewBox(20, 20, 30, 30)
	if !a.Intersect(c).Empty() || a.Intersects(c) {
		t.Error("disjoint boxes intersect")
	}
}

func TestGrow(t *testing.T) {
	b := NewBox(2, 2, 4, 4)
	if g := b.Grow(1); g != NewBox(1, 1, 5, 5) {
		t.Errorf("grow = %v", g)
	}
	if g := b.Grow(-1); g != NewBox(3, 3, 3, 3) {
		t.Errorf("shrink = %v", g)
	}
}

func TestRefineCoarsenRoundTrip(t *testing.T) {
	b := NewBox(1, 2, 5, 7)
	r := b.Refine(2)
	if r != NewBox(2, 4, 11, 15) {
		t.Errorf("refine = %v", r)
	}
	if c := r.Coarsen(2); c != b {
		t.Errorf("coarsen(refine(b)) = %v, want %v", c, b)
	}
}

func TestCoarsenNegativeIndices(t *testing.T) {
	b := NewBox(-4, -3, -1, -1)
	c := b.Coarsen(2)
	if c != NewBox(-2, -2, -1, -1) {
		t.Errorf("coarsen = %v", c)
	}
}

func TestBoundingBox(t *testing.T) {
	a := NewBox(0, 0, 2, 2)
	b := NewBox(5, 7, 6, 9)
	bb := a.BoundingBox(b)
	if bb != NewBox(0, 0, 6, 9) {
		t.Errorf("bounding = %v", bb)
	}
	empty := NewBox(1, 1, 0, 0)
	if a.BoundingBox(empty) != a || empty.BoundingBox(a) != a {
		t.Error("bounding with empty should return the other")
	}
}

func TestSplit(t *testing.T) {
	b := NewBox(0, 0, 9, 9)
	l, r := b.SplitX(4)
	if l != NewBox(0, 0, 3, 9) || r != NewBox(4, 0, 9, 9) {
		t.Errorf("splitX: %v %v", l, r)
	}
	bo, to := b.SplitY(7)
	if bo != NewBox(0, 0, 9, 6) || to != NewBox(0, 7, 9, 9) {
		t.Errorf("splitY: %v %v", bo, to)
	}
	if l.NumCells()+r.NumCells() != b.NumCells() {
		t.Error("split loses cells")
	}
}

func TestSubtract(t *testing.T) {
	b := NewBox(0, 0, 9, 9)
	hole := NewBox(3, 3, 6, 6)
	parts := b.Subtract(hole)
	total := 0
	for _, p := range parts {
		if p.Intersects(hole) {
			t.Errorf("part %v overlaps hole", p)
		}
		total += p.NumCells()
		for _, q := range parts {
			if p != q && p.Intersects(q) {
				t.Errorf("parts %v and %v overlap", p, q)
			}
		}
	}
	if total != b.NumCells()-hole.NumCells() {
		t.Errorf("subtract cells = %d, want %d", total, b.NumCells()-hole.NumCells())
	}
	// Full containment and disjoint cases.
	if got := b.Subtract(b); got != nil {
		t.Errorf("b - b = %v", got)
	}
	if got := b.Subtract(NewBox(20, 20, 25, 25)); len(got) != 1 || got[0] != b {
		t.Errorf("b - disjoint = %v", got)
	}
}

// Property: Subtract covers exactly the complement cells for random boxes.
func TestSubtractProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rnd := func() Box {
			x0, y0 := rng.Intn(12), rng.Intn(12)
			return NewBox(x0, y0, x0+rng.Intn(8), y0+rng.Intn(8))
		}
		b, o := rnd(), rnd()
		parts := b.Subtract(o)
		// Verify cell-by-cell membership.
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				inParts := 0
				for _, p := range parts {
					if p.Contains(i, j) {
						inParts++
					}
				}
				wantIn := 0
				if !o.Contains(i, j) {
					wantIn = 1
				}
				if inParts != wantIn {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Refine then Coarsen is the identity for any ratio >= 2.
func TestRefineCoarsenProperty(t *testing.T) {
	f := func(x0, y0 int8, w, hgt uint8, rRaw uint8) bool {
		r := int(rRaw%4) + 2
		b := NewBox(int(x0), int(y0), int(x0)+int(w%32), int(y0)+int(hgt%32))
		return b.Refine(r).Coarsen(r) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: refined box has exactly ratio^2 times the cells.
func TestRefineCellCountProperty(t *testing.T) {
	f := func(x0, y0 int8, w, hgt uint8, rRaw uint8) bool {
		r := int(rRaw%4) + 2
		b := NewBox(int(x0), int(y0), int(x0)+int(w%32), int(y0)+int(hgt%32))
		return b.Refine(r).NumCells() == r*r*b.NumCells()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecomposeUniform(t *testing.T) {
	b := NewBox(0, 0, 99, 99)
	for _, n := range []int{1, 2, 4, 6, 16, 48} {
		parts := b.DecomposeUniform(n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(parts))
		}
		total := 0
		for i, p := range parts {
			total += p.NumCells()
			for j := i + 1; j < len(parts); j++ {
				if p.Intersects(parts[j]) {
					t.Errorf("n=%d: parts %d,%d overlap", n, i, j)
				}
			}
			if !b.ContainsBox(p) {
				t.Errorf("n=%d: part %v escapes domain", n, p)
			}
		}
		if total != b.NumCells() {
			t.Errorf("n=%d: cells %d != %d", n, total, b.NumCells())
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := [][3]int{{7, 2, 3}, {-7, 2, -4}, {-8, 2, -4}, {8, 4, 2}, {-1, 4, -1}}
	for _, c := range cases {
		if got := floorDiv(c[0], c[1]); got != c[2] {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestContainsBox(t *testing.T) {
	outer := NewBox(0, 0, 9, 9)
	if !outer.ContainsBox(NewBox(2, 2, 7, 7)) || outer.ContainsBox(NewBox(5, 5, 12, 7)) {
		t.Error("ContainsBox wrong")
	}
	if !outer.ContainsBox(NewBox(3, 3, 2, 2)) {
		t.Error("empty box must be contained")
	}
}

func TestBoxString(t *testing.T) {
	if s := NewBox(1, 2, 3, 4).String(); s != "[(1,2)-(3,4)]" {
		t.Errorf("String = %q", s)
	}
}
