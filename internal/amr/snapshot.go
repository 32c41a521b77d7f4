package amr

import "fmt"

// Snapshots: a serializable description of a hierarchy's geometry, for
// checkpoint/restart. Field data is saved separately (package field);
// the snapshot restores the exact patch layout — IDs included — so
// saved patch data can be matched back up.

// PatchSnapshot is one patch's geometry.
type PatchSnapshot struct {
	ID    int
	Level int
	Box   Box
	Owner int
}

// Snapshot is a hierarchy's full geometric state.
type Snapshot struct {
	Domain        Box
	Ratio         int
	MaxLevels     int
	NumRanks      int
	NestingBuffer int
	Regrids       int
	Patches       []PatchSnapshot
	NextID        int
}

// Snapshot captures the hierarchy's geometry.
func (h *Hierarchy) Snapshot() Snapshot {
	s := Snapshot{
		Domain:        h.Domain,
		Ratio:         h.Ratio,
		MaxLevels:     h.MaxLevels,
		NumRanks:      h.NumRanks,
		NestingBuffer: h.NestingBuffer,
		Regrids:       h.Regrids,
		NextID:        h.nextID,
	}
	for _, lv := range h.levels {
		for _, p := range lv.Patches {
			s.Patches = append(s.Patches, PatchSnapshot{ID: p.ID, Level: p.Level, Box: p.Box, Owner: p.Owner})
		}
	}
	return s
}

// FromSnapshot reconstructs a hierarchy (including patch IDs and
// family links) from a snapshot.
func FromSnapshot(s Snapshot) (*Hierarchy, error) {
	if s.Ratio < 2 || s.MaxLevels < 1 || s.NumRanks < 1 {
		return nil, fmt.Errorf("amr: invalid snapshot header (ratio=%d maxLevels=%d ranks=%d)",
			s.Ratio, s.MaxLevels, s.NumRanks)
	}
	if s.Domain.Empty() {
		return nil, fmt.Errorf("amr: snapshot has empty domain %v", s.Domain)
	}
	if s.NestingBuffer < 0 || s.Regrids < 0 || s.NextID < 0 {
		return nil, fmt.Errorf("amr: invalid snapshot counters (nesting=%d regrids=%d nextID=%d)",
			s.NestingBuffer, s.Regrids, s.NextID)
	}
	if len(s.Patches) == 0 {
		return nil, fmt.Errorf("amr: snapshot has no patches")
	}
	h := &Hierarchy{
		Domain:        s.Domain,
		Ratio:         s.Ratio,
		MaxLevels:     s.MaxLevels,
		NumRanks:      s.NumRanks,
		Balancer:      GreedyBalancer{},
		NestingBuffer: s.NestingBuffer,
		Regrids:       s.Regrids,
		nextID:        s.NextID,
	}
	maxLevel := 0
	for _, p := range s.Patches {
		if p.Level < 0 {
			return nil, fmt.Errorf("amr: snapshot patch %d has negative level", p.ID)
		}
		if p.Level > maxLevel {
			maxLevel = p.Level
		}
	}
	if maxLevel >= s.MaxLevels {
		return nil, fmt.Errorf("amr: snapshot patch level %d exceeds maxLevels %d", maxLevel, s.MaxLevels)
	}
	// Every level needs a patch, so a level beyond the patch count is
	// refused here, before it sizes the level table.
	if maxLevel >= len(s.Patches) {
		return nil, fmt.Errorf("amr: snapshot patch level %d exceeds its %d patches", maxLevel, len(s.Patches))
	}
	h.levels = make([]*Level, maxLevel+1)
	for l := 0; l <= maxLevel; l++ {
		h.levels[l] = &Level{Index: l, Domain: h.levelDomain(l)}
	}
	seen := map[int]bool{}
	for _, p := range s.Patches {
		if seen[p.ID] {
			return nil, fmt.Errorf("amr: snapshot has duplicate patch ID %d", p.ID)
		}
		seen[p.ID] = true
		if p.ID < 0 {
			return nil, fmt.Errorf("amr: snapshot patch has negative ID %d", p.ID)
		}
		if p.Box.Empty() {
			return nil, fmt.Errorf("amr: snapshot patch %d has empty box %v", p.ID, p.Box)
		}
		if !h.levels[p.Level].Domain.ContainsBox(p.Box) {
			return nil, fmt.Errorf("amr: snapshot patch %d box %v escapes level %d domain %v",
				p.ID, p.Box, p.Level, h.levels[p.Level].Domain)
		}
		if p.Owner < 0 || p.Owner >= s.NumRanks {
			return nil, fmt.Errorf("amr: snapshot patch %d owner %d out of range (ranks=%d)",
				p.ID, p.Owner, s.NumRanks)
		}
		h.levels[p.Level].Patches = append(h.levels[p.Level].Patches,
			&Patch{ID: p.ID, Level: p.Level, Box: p.Box, Owner: p.Owner})
		if p.ID >= h.nextID {
			h.nextID = p.ID + 1
		}
	}
	for l := 0; l <= maxLevel; l++ {
		if len(h.levels[l].Patches) == 0 {
			return nil, fmt.Errorf("amr: snapshot level %d has no patches", l)
		}
	}
	h.linkFamilies()
	return h, nil
}
