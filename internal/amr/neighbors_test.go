package amr

import (
	"reflect"
	"testing"
)

// neighborsBrute is the O(n²) reference the sweep must match.
func neighborsBrute(lv *Level, ghost int) [][]int {
	n := len(lv.Patches)
	out := make([][]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if lv.Patches[a].Box.Grow(ghost).Intersects(lv.Patches[b].Box) {
				out[a] = append(out[a], b)
			}
		}
	}
	return out
}

func TestNeighborsMatchesBruteForce(t *testing.T) {
	// A ragged 2D tiling with gaps: patches sized and placed so some
	// pairs touch only corner-to-corner and some are separated by
	// exactly the ghost width.
	boxes := []Box{
		NewBox(0, 0, 9, 9), NewBox(10, 0, 19, 9), NewBox(22, 0, 30, 9),
		NewBox(0, 10, 9, 19), NewBox(12, 12, 19, 19),
		NewBox(0, 22, 30, 30), NewBox(35, 0, 40, 40),
	}
	lv := &Level{Domain: NewBox(0, 0, 40, 40)}
	for i, b := range boxes {
		lv.Patches = append(lv.Patches, &Patch{ID: i, Box: b})
	}
	for _, ghost := range []int{1, 2, 3, 5} {
		got := lv.Neighbors(ghost)
		want := neighborsBrute(lv, ghost)
		for i := range want {
			g, w := got[i], want[i]
			if len(g) == 0 && len(w) == 0 {
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("ghost=%d patch %d: neighbors %v, want %v", ghost, i, g, w)
			}
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 47, 47), 2, 1, 6)
	lv := h.Level(0)
	nbr := lv.Neighbors(2)
	for a := range nbr {
		for _, b := range nbr[a] {
			found := false
			for _, back := range nbr[b] {
				if back == a {
					found = true
				}
			}
			if !found {
				t.Errorf("patch %d lists %d but not vice versa", a, b)
			}
		}
	}
}

func TestGenerationBumpsOnRegrid(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 31, 31), 2, 2, 1)
	g0 := h.Generation()
	ff := NewFlagField(h.LevelDomain(0))
	ff.SetBox(NewBox(8, 8, 15, 15))
	next := h.Regrid([]*FlagField{ff}, DefaultRegridOptions)
	if next.Generation() == g0 {
		t.Error("Generation did not change across Regrid")
	}
	if h.Generation() != g0 {
		t.Error("Regrid moved its receiver's Generation")
	}
}
