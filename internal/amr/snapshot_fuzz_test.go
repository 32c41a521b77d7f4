package amr

import (
	"strings"
	"testing"
)

// validSnapshot returns a snapshot that round-trips through FromSnapshot.
func validSnapshot() Snapshot {
	return Snapshot{
		Domain:        NewBox(0, 0, 15, 15),
		Ratio:         2,
		MaxLevels:     3,
		NumRanks:      2,
		NestingBuffer: 1,
		Regrids:       4,
		NextID:        10,
		Patches: []PatchSnapshot{
			{ID: 0, Level: 0, Box: NewBox(0, 0, 15, 7), Owner: 0},
			{ID: 1, Level: 0, Box: NewBox(0, 8, 15, 15), Owner: 1},
			{ID: 5, Level: 1, Box: NewBox(4, 4, 19, 19), Owner: 0},
		},
	}
}

// Fuzz-style table over malformed snapshots: every corruption must come
// back as an error — never a panic, never a silently accepted hierarchy.
func TestFromSnapshotRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Snapshot)
		wantSub string
	}{
		{"zero ratio", func(s *Snapshot) { s.Ratio = 0 }, "invalid snapshot header"},
		{"negative ratio", func(s *Snapshot) { s.Ratio = -2 }, "invalid snapshot header"},
		{"zero maxLevels", func(s *Snapshot) { s.MaxLevels = 0 }, "invalid snapshot header"},
		{"zero ranks", func(s *Snapshot) { s.NumRanks = 0 }, "invalid snapshot header"},
		{"empty domain", func(s *Snapshot) { s.Domain = NewBox(5, 5, 4, 4) }, "empty domain"},
		{"inverted domain", func(s *Snapshot) { s.Domain = Box{Lo: [2]int{0, 0}, Hi: [2]int{-1, 3}} }, "empty domain"},
		{"negative nesting", func(s *Snapshot) { s.NestingBuffer = -1 }, "invalid snapshot counters"},
		{"negative regrids", func(s *Snapshot) { s.Regrids = -3 }, "invalid snapshot counters"},
		{"negative nextID", func(s *Snapshot) { s.NextID = -1 }, "invalid snapshot counters"},
		{"no patches", func(s *Snapshot) { s.Patches = nil }, "no patches"},
		{"negative patch level", func(s *Snapshot) { s.Patches[2].Level = -1 }, "negative level"},
		{"level beyond max", func(s *Snapshot) { s.Patches[2].Level = 3 }, "exceeds maxLevels"},
		{"huge level", func(s *Snapshot) { s.Patches[2].Level = 1 << 30 }, "exceeds maxLevels"},
		{"huge level under huge max", func(s *Snapshot) {
			s.MaxLevels = 1 << 62
			s.Patches[2].Level = 1<<62 - 1
		}, "exceeds its 3 patches"},
		{"duplicate patch ID", func(s *Snapshot) { s.Patches[1].ID = 0 }, "duplicate patch ID"},
		{"negative patch ID", func(s *Snapshot) { s.Patches[2].ID = -7 }, "negative ID"},
		{"empty patch box", func(s *Snapshot) { s.Patches[0].Box = NewBox(3, 3, 2, 3) }, "empty box"},
		{"patch escapes domain", func(s *Snapshot) { s.Patches[0].Box = NewBox(0, 0, 16, 7) }, "escapes level"},
		{"fine patch escapes refined domain", func(s *Snapshot) { s.Patches[2].Box = NewBox(4, 4, 32, 19) }, "escapes level"},
		{"negative owner", func(s *Snapshot) { s.Patches[1].Owner = -1 }, "owner"},
		{"owner beyond ranks", func(s *Snapshot) { s.Patches[1].Owner = 2 }, "owner"},
		{"hole in level coverage", func(s *Snapshot) {
			// Patches only on levels 0 and 2: level 1 ends up empty.
			s.Patches[2].Level = 2
			s.Patches[2].Box = NewBox(16, 16, 31, 31)
		}, "has no patches"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("FromSnapshot panicked: %v", r)
				}
			}()
			s := validSnapshot()
			tc.mutate(&s)
			h, err := FromSnapshot(s)
			if err == nil {
				t.Fatalf("malformed snapshot accepted: %+v", h)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// The valid baseline must still round-trip after the hardening.
func TestFromSnapshotAcceptsValid(t *testing.T) {
	s := validSnapshot()
	h, err := FromSnapshot(s)
	if err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	got := h.Snapshot()
	if got.NextID != 10 || got.Regrids != 4 || len(got.Patches) != 3 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}
