package amr

import (
	"reflect"
	"testing"
)

// regriddedHierarchy builds a 3-level hierarchy under numRanks ranks,
// regridding it the given number of times. Each regrid moves the
// level-1 flags, so a second one keeps the level-1 patches and their
// IDs but gives level 2 fresh IDs, moving NextID away from the first's.
func regriddedHierarchy(numRanks, regrids int) *Hierarchy {
	h := NewHierarchy(NewBox(0, 0, 99, 99), 2, 3, numRanks)
	for k := range regrids {
		f0 := NewFlagField(h.LevelDomain(0))
		f0.SetBox(NewBox(40, 40, 59, 59))
		f1 := NewFlagField(h.LevelDomain(1))
		f1.SetBox(NewBox(90+4*k, 90+4*k, 109+4*k, 109+4*k))
		h = h.Regrid([]*FlagField{f0, f1}, DefaultRegridOptions)
	}
	return h
}

func TestRepartitionMatchesNativeLayout(t *testing.T) {
	// Refined-level box generation is P-invariant, so a hierarchy built
	// under P_old and repartitioned onto P_new must equal the hierarchy a
	// native P_new run builds from the same flags — boxes, owners, IDs
	// and the next ID alike, after one regrid or two. (This is the
	// property elastic restart stands on.)
	for _, regrids := range []int{1, 2} {
		for _, pOld := range []int{1, 2, 4} {
			snap := regriddedHierarchy(pOld, regrids).Snapshot()
			for _, pNew := range []int{1, 2, 3, 4} {
				got, err := Repartition(snap, pNew, GreedyBalancer{}, UniformWorkload)
				if err != nil {
					t.Fatalf("Repartition %d->%d after %d regrids: %v", pOld, pNew, regrids, err)
				}
				gs, ns := got.Snapshot(), regriddedHierarchy(pNew, regrids).Snapshot()
				if !reflect.DeepEqual(gs.Patches, ns.Patches) || gs.NextID != ns.NextID {
					t.Errorf("repartition %d->%d after %d regrids differs from native:\n got %v next %d\nwant %v next %d",
						pOld, pNew, regrids, gs.Patches, gs.NextID, ns.Patches, ns.NextID)
				}
				if err := got.CheckProperNesting(); err != nil {
					t.Errorf("repartition %d->%d: %v", pOld, pNew, err)
				}
				if got.Regrids != snap.Regrids || got.NestingBuffer != snap.NestingBuffer {
					t.Errorf("repartition %d->%d lost counters", pOld, pNew)
				}
			}
		}
	}
}

func TestRepartitionRejectsBadInput(t *testing.T) {
	snap := regriddedHierarchy(2, 1).Snapshot()
	if _, err := Repartition(snap, 0, nil, nil); err == nil {
		t.Error("accepted 0 ranks")
	}
	bad := snap
	bad.Patches = nil
	if _, err := Repartition(bad, 2, nil, nil); err == nil {
		t.Error("accepted empty snapshot")
	}
	// Refined IDs below the level-0 ones would collide with the four
	// level-0 IDs a 4-rank repartition hands out.
	low := snap
	low.Patches = nil
	for _, p := range snap.Patches {
		if p.Level == 0 {
			p.ID += 100
		} else {
			p.ID -= 2
		}
		low.Patches = append(low.Patches, p)
	}
	if _, err := Repartition(low, 4, nil, nil); err == nil {
		t.Error("accepted refined IDs that collide with level 0")
	}
}
