package amr

import "testing"

func TestSnapshotRoundTrip(t *testing.T) {
	h := NewHierarchy(NewBox(0, 0, 63, 63), 2, 3, 4)
	f0 := NewFlagField(h.LevelDomain(0))
	f0.SetBox(NewBox(10, 10, 29, 29))
	f1 := NewFlagField(h.LevelDomain(1))
	f1.SetBox(NewBox(30, 30, 45, 45))
	h = h.Regrid([]*FlagField{f0, f1}, DefaultRegridOptions)

	s := h.Snapshot()
	h2, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumLevels() != h.NumLevels() {
		t.Fatalf("levels %d != %d", h2.NumLevels(), h.NumLevels())
	}
	for l := 0; l < h.NumLevels(); l++ {
		a, b := h.Level(l).Patches, h2.Level(l).Patches
		if len(a) != len(b) {
			t.Fatalf("level %d patch count %d != %d", l, len(b), len(a))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Box != b[i].Box || a[i].Owner != b[i].Owner {
				t.Errorf("level %d patch %d mismatch: %+v vs %+v", l, i, a[i], b[i])
			}
		}
	}
	if h2.Regrids != h.Regrids {
		t.Errorf("regrids %d != %d", h2.Regrids, h.Regrids)
	}
	// New IDs after restore must not collide with restored ones.
	f2 := NewFlagField(h2.LevelDomain(0))
	f2.SetBox(NewBox(40, 40, 55, 55))
	h2 = h2.Regrid([]*FlagField{f2}, DefaultRegridOptions)
	seen := map[int]bool{}
	for l := 0; l < h2.NumLevels(); l++ {
		for _, p := range h2.Level(l).Patches {
			if seen[p.ID] {
				t.Fatalf("duplicate patch ID %d after post-restore regrid", p.ID)
			}
			seen[p.ID] = true
		}
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	cases := []Snapshot{
		{}, // zero header
		{Domain: NewBox(0, 0, 7, 7), Ratio: 2, MaxLevels: 1, NumRanks: 1,
			Patches: []PatchSnapshot{{ID: 0, Level: 1, Box: NewBox(0, 0, 3, 3)}}}, // level beyond max
		{Domain: NewBox(0, 0, 7, 7), Ratio: 2, MaxLevels: 2, NumRanks: 1,
			Patches: []PatchSnapshot{
				{ID: 0, Level: 0, Box: NewBox(0, 0, 7, 7)},
				{ID: 0, Level: 0, Box: NewBox(0, 0, 3, 3)}, // dup ID
			}},
		{Domain: NewBox(0, 0, 7, 7), Ratio: 2, MaxLevels: 3, NumRanks: 1,
			Patches: []PatchSnapshot{
				{ID: 0, Level: 0, Box: NewBox(0, 0, 7, 7)},
				{ID: 1, Level: 2, Box: NewBox(0, 0, 3, 3)}, // hole at level 1
			}},
	}
	for i, s := range cases {
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewHierarchyDecomposed(t *testing.T) {
	domain := NewBox(0, 0, 31, 31)
	boxes := SplitLargeBoxes([]Box{domain}, 128)
	owners := make([]int, len(boxes))
	for i := range owners {
		owners[i] = i % 3
	}
	h := NewHierarchyDecomposed(domain, 2, 2, 3, boxes, owners)
	if len(h.Level(0).Patches) != len(boxes) {
		t.Fatalf("patches = %d, want %d", len(h.Level(0).Patches), len(boxes))
	}
	if h.Level(0).NumCells() != domain.NumCells() {
		t.Errorf("cells = %d", h.Level(0).NumCells())
	}
	// Mismatched owners panics.
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	NewHierarchyDecomposed(domain, 2, 2, 3, boxes, owners[:1])
}
