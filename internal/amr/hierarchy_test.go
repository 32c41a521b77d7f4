package amr

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHierarchyLevelZero(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 99, 99), 2, 3, 4)
	if h.NumLevels() != 1 {
		t.Fatalf("levels = %d", h.NumLevels())
	}
	l0 := h.Level(0)
	if len(l0.Patches) != 4 {
		t.Fatalf("patches = %d", len(l0.Patches))
	}
	if l0.NumCells() != 100*100 {
		t.Errorf("cells = %d", l0.NumCells())
	}
	owners := map[int]bool{}
	for _, p := range l0.Patches {
		owners[p.Owner] = true
	}
	if len(owners) != 4 {
		t.Errorf("owners = %v", owners)
	}
}

func TestRegridCreatesNestedLevels(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 99, 99), 2, 3, 2)
	// Flag a blob on level 0 and a smaller blob on level 1 (so level 2
	// appears too).
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(40, 40, 59, 59))
	f1 := NewFlagField(h.LevelDomain(1))
	f1.SetBox(NewBox(90, 90, 109, 109))
	h = h.Regrid([]*FlagField{f0, f1}, DefaultRegridOptions)

	if h.NumLevels() != 3 {
		t.Fatalf("levels = %d, want 3", h.NumLevels())
	}
	// Level 1 must cover the refined flagged region.
	want1 := NewBox(40, 40, 59, 59).Refine(2)
	covered := func(lv *Level, region Box) bool {
		// every cell of region must be inside some patch
		for j := region.Lo[1]; j <= region.Hi[1]; j++ {
			for i := region.Lo[0]; i <= region.Hi[0]; i++ {
				ok := false
				for _, p := range lv.Patches {
					if p.Box.Contains(i, j) {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if !covered(h.Level(1), want1) {
		t.Error("level 1 does not cover flagged region")
	}
	want2 := NewBox(90, 90, 109, 109).Refine(2)
	if !covered(h.Level(2), want2) {
		t.Error("level 2 does not cover flagged region")
	}
}

func TestRegridProperNesting(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 127, 127), 2, 4, 3)
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(30, 30, 49, 49))
	f1 := NewFlagField(h.LevelDomain(1))
	f1.SetBox(NewBox(70, 70, 89, 89))
	f2 := NewFlagField(h.LevelDomain(2))
	f2.SetBox(NewBox(150, 150, 169, 169))
	h = h.Regrid([]*FlagField{f0, f1, f2}, DefaultRegridOptions)

	// Every patch on level l>=1 must be contained in the union of
	// level l-1 patch footprints (coarsened check).
	for l := 1; l < h.NumLevels(); l++ {
		coarse := h.Level(l - 1)
		for _, p := range h.Level(l).Patches {
			foot := p.Box.Coarsen(h.Ratio)
			remaining := []Box{foot}
			for _, cp := range coarse.Patches {
				var next []Box
				for _, r := range remaining {
					next = append(next, r.Subtract(cp.Box)...)
				}
				remaining = next
			}
			if len(remaining) != 0 {
				t.Errorf("level %d patch %v escapes level %d cover: %v", l, p.Box, l-1, remaining)
			}
		}
	}
}

// identityFlags flags a blob on level 0 and, when fine is set, a box
// on level 1 at the given offset, so level 2 appears beside level 1.
func identityFlags(h *Hierarchy, fine bool, off int) []*FlagField {
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(40, 40, 59, 59))
	if !fine {
		return []*FlagField{f0}
	}
	f1 := NewFlagField(h.LevelDomain(1))
	f1.SetBox(NewBox(90+off, 90+off, 109+off, 109+off))
	return []*FlagField{f0, f1}
}

// patchSet lists every patch of h by ID.
func patchSet(h *Hierarchy) map[int]*Patch {
	out := map[int]*Patch{}
	for l := 0; l < h.NumLevels(); l++ {
		for _, p := range h.Level(l).Patches {
			out[p.ID] = p
		}
	}
	return out
}

func TestRegridSameFlagsKeepsPatches(t *testing.T) {
	h1 := NewHierarchy(NewBox(0, 0, 99, 99), 2, 3, 2)
	h2 := h1.Regrid(identityFlags(h1, true, 0), DefaultRegridOptions)
	h3 := h2.Regrid(identityFlags(h2, true, 0), DefaultRegridOptions)
	if h3.NumLevels() != 3 {
		t.Fatalf("levels = %d, want 3", h3.NumLevels())
	}
	for l := 0; l < h2.NumLevels(); l++ {
		a, b := h2.Level(l).Patches, h3.Level(l).Patches
		if len(a) != len(b) {
			t.Fatalf("level %d: %d patches, then %d", l, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("level %d patch %d: %+v became a new value %+v", l, i, *a[i], *b[i])
			}
		}
	}
	if h3.Snapshot().NextID != h2.Snapshot().NextID {
		t.Errorf("same flags took IDs: next %d, then %d", h2.Snapshot().NextID, h3.Snapshot().NextID)
	}
}

func TestRegridChangedBoxTakesFreshID(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 99, 99), 2, 3, 2)
	seen := patchSet(h)
	// Level 1 stays put while level 2 moves each time: the survivors
	// keep their IDs and every moved box takes one never seen before.
	for off := 0; off <= 4; off += 2 {
		prev := h
		h = h.Regrid(identityFlags(h, true, off), DefaultRegridOptions)
		if err := h.CheckProperNesting(); err != nil {
			t.Fatal(err)
		}
		old := patchSet(prev)
		fresh := 0
		for id, p := range patchSet(h) {
			if q, ok := old[id]; ok {
				if q.Level != p.Level || q.Box != p.Box {
					t.Errorf("offset %d: ID %d named %v, now %v", off, id, q.Box, p.Box)
				}
				continue
			}
			if seen[id] != nil {
				t.Errorf("offset %d: ID %d reused for %v", off, id, p.Box)
			}
			seen[id] = p
			fresh++
		}
		if off > 0 && fresh == 0 {
			t.Errorf("offset %d: moved level 2 took no fresh ID", off)
		}
		if off > 0 && len(h.Level(1).Patches) > 0 && h.Level(1).Patches[0] != prev.Level(1).Patches[0] {
			t.Errorf("offset %d: unchanged level 1 did not survive", off)
		}
	}
}

func TestRegridLeavesReceiver(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 99, 99), 2, 3, 2)
	h = h.Regrid(identityFlags(h, true, 0), DefaultRegridOptions)
	before := h.Snapshot()
	levels := make([]*Level, h.NumLevels())
	for l := range levels {
		levels[l] = h.Level(l)
	}
	next := h.Regrid(identityFlags(h, false, 0), DefaultRegridOptions)
	if next.NumLevels() != 2 || next.Regrids != h.Regrids+1 {
		t.Fatalf("successor: %d levels, %d regrids", next.NumLevels(), next.Regrids)
	}
	if next.Level(0) != h.Level(0) {
		t.Error("successor did not keep level 0")
	}
	if after := h.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("receiver changed:\n%+v\n%+v", before, after)
	}
	for l := range levels {
		if h.Level(l) != levels[l] {
			t.Errorf("receiver level %d replaced", l)
		}
	}
}

func TestRegridNoFlagsDropsFineLevels(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 63, 63), 2, 3, 1)
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(10, 10, 19, 19))
	h = h.Regrid([]*FlagField{f0}, DefaultRegridOptions)
	if h.NumLevels() != 2 {
		t.Fatalf("levels = %d", h.NumLevels())
	}
	// Regrid with no flags: back to a single level.
	h = h.Regrid(nil, DefaultRegridOptions)
	if h.NumLevels() != 1 {
		t.Errorf("levels after empty regrid = %d", h.NumLevels())
	}
	if h.Regrids != 2 {
		t.Errorf("Regrids = %d", h.Regrids)
	}
}

func TestRegridRespectsMaxLevels(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 63, 63), 2, 2, 1)
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(0, 0, 63, 63))
	f1 := NewFlagField(h.LevelDomain(1))
	f1.SetBox(h.LevelDomain(1))
	h = h.Regrid([]*FlagField{f0, f1}, DefaultRegridOptions)
	if h.NumLevels() > 2 {
		t.Errorf("levels = %d exceeds MaxLevels=2", h.NumLevels())
	}
}

func TestLocalPatches(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 99, 99), 2, 1, 4)
	seen := 0
	for r := 0; r < 4; r++ {
		ps := h.LocalPatches(0, r)
		seen += len(ps)
		for _, p := range ps {
			if p.Owner != r {
				t.Errorf("rank %d got patch owned by %d", r, p.Owner)
			}
		}
	}
	if seen != len(h.Level(0).Patches) {
		t.Errorf("local patch union %d != %d", seen, len(h.Level(0).Patches))
	}
}

func TestMeshSpacing(t *testing.T) {
	if got := MeshSpacing(1.0, 2, 0); got != 1.0 {
		t.Errorf("l0 = %v", got)
	}
	if got := MeshSpacing(1.0, 2, 3); got != 0.125 {
		t.Errorf("l3 = %v", got)
	}
	if got := MeshSpacing(0.1, 4, 2); got != 0.1/16 {
		t.Errorf("r4 l2 = %v", got)
	}
}

func TestSplitLargeBoxes(t *testing.T) {
	boxes := []Box{NewBox(0, 0, 99, 99)}
	parts := SplitLargeBoxes(boxes, 1000)
	total := 0
	for _, p := range parts {
		if p.NumCells() > 1000*2 {
			t.Errorf("part %v has %d cells", p, p.NumCells())
		}
		total += p.NumCells()
	}
	if total != 10000 {
		t.Errorf("total = %d", total)
	}
}

func TestCensusAndString(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 99, 99), 2, 2, 2)
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(0, 0, 9, 9))
	h = h.Regrid([]*FlagField{f0}, DefaultRegridOptions)
	cs := h.CensusReport()
	if len(cs) != 2 || cs[0].Cells != 10000 {
		t.Errorf("census = %+v", cs)
	}
	if cs[1].Coverage <= 0 || cs[1].Coverage > 1 {
		t.Errorf("coverage = %v", cs[1].Coverage)
	}
	if s := h.String(); !strings.Contains(s, "level 1") {
		t.Errorf("String = %q", s)
	}
}

func TestTotalCells(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 31, 31), 2, 1, 1)
	if h.TotalCells() != 1024 {
		t.Errorf("total = %d", h.TotalCells())
	}
}

// ---- load balance -------------------------------------------------------

func TestGreedyBalancerSpreadsLoad(t *testing.T) {
	boxes := []Box{
		NewBox(0, 0, 31, 31), // 1024
		NewBox(0, 0, 15, 15), // 256
		NewBox(0, 0, 15, 15), // 256
		NewBox(0, 0, 15, 15), // 256
		NewBox(0, 0, 15, 15), // 256
	}
	owners := GreedyBalancer{}.Assign(boxes, 0, 2, nil)
	imb := Imbalance(boxes, owners, 0, 2, nil)
	if imb > 1.05 {
		t.Errorf("greedy imbalance = %.3f", imb)
	}
}

func TestSFCBalancerLocality(t *testing.T) {
	// A 4x4 grid of equal boxes: contiguous Morton segments should give
	// perfect balance on 4 ranks.
	var boxes []Box
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			boxes = append(boxes, NewBox(i*8, j*8, i*8+7, j*8+7))
		}
	}
	owners := SFCBalancer{}.Assign(boxes, 0, 4, nil)
	imb := Imbalance(boxes, owners, 0, 4, nil)
	if imb > 1.01 {
		t.Errorf("sfc imbalance = %.3f", imb)
	}
}

func TestBalancersSingleRank(t *testing.T) {
	boxes := []Box{NewBox(0, 0, 3, 3), NewBox(4, 4, 9, 9)}
	for _, b := range []LoadBalancer{GreedyBalancer{}, SFCBalancer{}} {
		owners := b.Assign(boxes, 0, 1, nil)
		for _, o := range owners {
			if o != 0 {
				t.Errorf("%T assigned rank %d with 1 rank", b, o)
			}
		}
	}
}

func TestCustomWorkload(t *testing.T) {
	// A workload that makes the small box expensive must flip greedy's
	// assignment order.
	boxes := []Box{NewBox(0, 0, 31, 31), NewBox(0, 0, 3, 3)}
	costly := func(b Box, level int) float64 {
		if b.NumCells() < 100 {
			return 1e6
		}
		return float64(b.NumCells())
	}
	owners := GreedyBalancer{}.Assign(boxes, 0, 2, costly)
	if owners[0] == owners[1] {
		t.Errorf("expensive boxes share rank: %v", owners)
	}
}

// Property: every balancer returns a valid owner per box and balances a
// stream of equal boxes within a factor ~2.
func TestBalancerValidityProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, ranksRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 8
		nranks := int(ranksRaw%7) + 2
		boxes := make([]Box, n)
		for i := range boxes {
			x, y := rng.Intn(100), rng.Intn(100)
			boxes[i] = NewBox(x, y, x+7, y+7)
		}
		for _, bal := range []LoadBalancer{GreedyBalancer{}, SFCBalancer{}} {
			owners := bal.Assign(boxes, 1, nranks, nil)
			if len(owners) != n {
				return false
			}
			for _, o := range owners {
				if o < 0 || o >= nranks {
					return false
				}
			}
			if n >= 2*nranks {
				if Imbalance(boxes, owners, 1, nranks, nil) > 2.0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMortonKeyOrdering(t *testing.T) {
	// Morton keys must be monotone along each axis from the origin.
	if mortonKey(0, 0) >= mortonKey(1, 0) || mortonKey(0, 0) >= mortonKey(0, 1) {
		t.Error("morton origin not minimal")
	}
	if mortonKey(1, 0) == mortonKey(0, 1) {
		t.Error("morton collision")
	}
	if spread(0xFFFFFFFF) != 0x5555555555555555 {
		t.Errorf("spread = %x", spread(0xFFFFFFFF))
	}
}

func TestImbalancePerfect(t *testing.T) {
	boxes := []Box{NewBox(0, 0, 3, 3), NewBox(0, 0, 3, 3)}
	if got := Imbalance(boxes, []int{0, 1}, 0, 2, nil); got != 1 {
		t.Errorf("imbalance = %v", got)
	}
}

func TestCheckProperNesting(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 63, 63), 2, 3, 2)
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(10, 10, 29, 29))
	f1 := NewFlagField(h.LevelDomain(1))
	f1.SetBox(NewBox(30, 30, 49, 49))
	h = h.Regrid([]*FlagField{f0, f1}, DefaultRegridOptions)
	if err := h.CheckProperNesting(); err != nil {
		t.Fatalf("regridded hierarchy invalid: %v", err)
	}
	// Corrupt it: add a level-2 patch far from the level-1 cover.
	h.Level(2).Patches = append(h.Level(2).Patches,
		&Patch{ID: 9999, Level: 2, Box: NewBox(240, 240, 252, 252)})
	if err := h.CheckProperNesting(); err == nil {
		t.Error("validator missed an un-nested patch")
	}
}

func TestCheckProperNestingDetectsOverlap(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 31, 31), 2, 1, 1)
	h.Level(0).Patches = append(h.Level(0).Patches,
		&Patch{ID: 777, Level: 0, Box: NewBox(0, 0, 5, 5)})
	if err := h.CheckProperNesting(); err == nil {
		t.Error("validator missed overlapping patches")
	}
}

// CheckProperNesting verifies the hierarchy invariants: every fine
// patch lies inside the domain, inside the union of the next coarser
// level's patches, and no two same-level patches overlap. It returns
// the first violation found, or nil.
func (h *Hierarchy) CheckProperNesting() error {
	for l, lv := range h.levels {
		domain := h.levelDomain(l)
		for i, p := range lv.Patches {
			if !domain.ContainsBox(p.Box) {
				return fmt.Errorf("amr: level %d patch %v escapes domain %v", l, p.Box, domain)
			}
			for j := i + 1; j < len(lv.Patches); j++ {
				if p.Box.Intersects(lv.Patches[j].Box) {
					return fmt.Errorf("amr: level %d patches %v and %v overlap", l, p.Box, lv.Patches[j].Box)
				}
			}
			if l == 0 {
				continue
			}
			remaining := []Box{p.Box.Coarsen(h.Ratio)}
			for _, cp := range h.levels[l-1].Patches {
				var next []Box
				for _, r := range remaining {
					next = append(next, r.Subtract(cp.Box)...)
				}
				remaining = next
			}
			if len(remaining) != 0 {
				return fmt.Errorf("amr: level %d patch %v not nested in level %d (uncovered: %v)",
					l, p.Box, l-1, remaining)
			}
		}
	}
	return nil
}
