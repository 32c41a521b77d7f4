package amr

import (
	"fmt"
	"strings"
)

// Patch is one rectangular grid block on a level of the hierarchy: an
// immutable (ID, level, box, owner) value, never changed after it is
// made. The patch metadata is replicated on all ranks, as GrACE
// replicates its directory; only patch *data* is distributed. The ID
// alone names a patch for the whole run: Regrid's numbering rule never
// gives one ID two boxes.
type Patch struct {
	ID    int
	Level int
	Box   Box
	// Owner is the rank holding this patch's data.
	Owner int
}

// Level collects the patches of one refinement depth.
type Level struct {
	// Index is the level number, 0 = coarsest.
	Index int
	// Domain is the whole problem domain in this level's index space.
	Domain Box
	// Patches in deterministic creation order.
	Patches []*Patch
}

// NumCells totals the cells of all patches on the level.
func (l *Level) NumCells() int {
	n := 0
	for _, p := range l.Patches {
		n += p.Box.NumCells()
	}
	return n
}

// Hierarchy is the SAMR patch hierarchy: level 0 covers the domain;
// finer levels cover flagged subregions at Ratio× resolution. It is
// geometric only — field data lives in package field — matching the
// paper's split between the Mesh and Data Object subsystems.
type Hierarchy struct {
	// Domain is the level-0 index-space domain.
	Domain Box
	// Ratio is the constant refinement ratio between adjacent levels.
	Ratio int
	// MaxLevels caps the hierarchy depth (1 = uniform grid).
	MaxLevels int
	// NumRanks is the size of the SCMD cohort data is distributed over.
	NumRanks int
	// Balancer assigns patches to ranks; defaults to GreedyBalancer.
	Balancer LoadBalancer
	// NestingBuffer is the number of coarse cells a fine level must stay
	// inside its parent level's interior (standard proper nesting).
	NestingBuffer int

	levels []*Level
	nextID int
	// Regrids counts the regrids behind this hierarchy; it is the
	// Generation.
	Regrids int
}

// NewHierarchy creates a hierarchy whose level 0 tiles the domain with
// one patch per rank (uniform decomposition).
func NewHierarchy(domain Box, ratio, maxLevels, numRanks int) *Hierarchy {
	if ratio < 2 {
		ratio = 2
	}
	if maxLevels < 1 {
		maxLevels = 1
	}
	if numRanks < 1 {
		numRanks = 1
	}
	h := &Hierarchy{
		Domain:        domain,
		Ratio:         ratio,
		MaxLevels:     maxLevels,
		NumRanks:      numRanks,
		Balancer:      GreedyBalancer{},
		NestingBuffer: 1,
	}
	l0 := &Level{Index: 0, Domain: domain}
	boxes := domain.DecomposeUniform(numRanks)
	owners := make([]int, len(boxes))
	for i := range owners {
		owners[i] = i % numRanks
	}
	for i, b := range boxes {
		if b.Empty() {
			continue
		}
		l0.Patches = append(l0.Patches, &Patch{ID: h.takeID(), Level: 0, Box: b, Owner: owners[i]})
	}
	h.levels = []*Level{l0}
	return h
}

// NewHierarchyDecomposed creates a hierarchy whose level 0 consists of
// the given boxes with the given owners (one owner per box). The
// paper's load-balancing policy — "patches are collated and
// distributed among processors to maximize load-balance" — needs more
// patches than ranks; this constructor installs such a decomposition.
func NewHierarchyDecomposed(domain Box, ratio, maxLevels, numRanks int, boxes []Box, owners []int) *Hierarchy {
	if len(boxes) != len(owners) {
		panic("amr: boxes/owners length mismatch")
	}
	h := NewHierarchy(domain, ratio, maxLevels, numRanks)
	l0 := &Level{Index: 0, Domain: domain}
	h.nextID = 0
	for i, b := range boxes {
		if b.Empty() {
			continue
		}
		l0.Patches = append(l0.Patches, &Patch{ID: h.takeID(), Level: 0, Box: b, Owner: owners[i]})
	}
	h.levels = []*Level{l0}
	return h
}

func (h *Hierarchy) takeID() int {
	id := h.nextID
	h.nextID++
	return id
}

// NumLevels is the current hierarchy depth.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns the l-th level; panics on range error (programming bug).
func (h *Hierarchy) Level(l int) *Level {
	if l < 0 || l >= len(h.levels) {
		panic(fmt.Sprintf("amr: level %d out of range [0,%d)", l, len(h.levels)))
	}
	return h.levels[l]
}

// LocalPatches lists patches on level l owned by the given rank.
func (h *Hierarchy) LocalPatches(l, rank int) []*Patch {
	var out []*Patch
	for _, p := range h.Level(l).Patches {
		if p.Owner == rank {
			out = append(out, p)
		}
	}
	return out
}

// TotalCells sums cells over all levels.
func (h *Hierarchy) TotalCells() int {
	n := 0
	for _, lv := range h.levels {
		n += lv.NumCells()
	}
	return n
}

// MeshSpacing returns the physical cell size on level l given the
// level-0 spacing.
func MeshSpacing(dx0 float64, ratio, level int) float64 {
	dx := dx0
	for i := 0; i < level; i++ {
		dx /= float64(ratio)
	}
	return dx
}

// RegridOptions tunes hierarchy rebuilds.
type RegridOptions struct {
	Cluster ClusterOptions
	// MaxPatchCells splits produced boxes larger than this so the
	// balancer has units to distribute; 0 means no splitting.
	MaxPatchCells int
	// Workload estimates the cost of a box on a level for balancing.
	Workload Workload
}

// DefaultRegridOptions is suitable for the flame and shock problems.
var DefaultRegridOptions = RegridOptions{
	Cluster:       DefaultClusterOptions,
	MaxPatchCells: 4096,
}

// Regrid returns the successor of h built from per-level flag fields,
// and leaves h as it was, so data can still be read on the old
// geometry. flags[l] holds refinement flags in level l's index space;
// missing or nil entries mean "no flags on that level". Proceeding from
// the finest allowed level downward, each level's flags are augmented
// with the coarsened boxes of the level two finer (proper nesting),
// clustered, refined, split and balanced.
//
// One numbering rule names every patch. The successor keeps level 0. A
// refined patch whose (level, box) is in h keeps its ID, and its *Patch
// too unless the balancer gives it a new owner; every other patch takes
// the next ID from the one counter, so no ID is reused within a run.
func (h *Hierarchy) Regrid(flags []*FlagField, opt RegridOptions) *Hierarchy {
	if opt.Cluster.Efficiency == 0 {
		opt.Cluster = DefaultClusterOptions
	}
	maxNew := h.MaxLevels - 1 // deepest level index we may build
	// newBoxes[l] holds boxes for rebuilt level l (level-l index space).
	newBoxes := make([][]Box, h.MaxLevels)
	for l := maxNew - 1; l >= 0; l-- {
		ff := NewFlagField(h.levelDomain(l))
		if l < len(flags) && flags[l] != nil {
			src := flags[l]
			ov := ff.Box.Intersect(src.Box)
			for j := ov.Lo[1]; j <= ov.Hi[1]; j++ {
				for i := ov.Lo[0]; i <= ov.Hi[0]; i++ {
					if src.Get(i, j) {
						ff.Set(i, j)
					}
				}
			}
		}
		// Proper nesting: boxes of new level l+2 must live inside new
		// level l+1, so flag their coarsened footprint (plus buffer)
		// at level l.
		if l+2 <= maxNew {
			for _, fb := range newBoxes[l+2] {
				cb := fb.Coarsen(h.Ratio * h.Ratio).Grow(h.NestingBuffer)
				ff.SetBox(cb.Intersect(ff.Box))
			}
		}
		if ff.Count() == 0 {
			newBoxes[l+1] = nil
			continue
		}
		ff.Buffer(h.NestingBuffer)
		boxes := Cluster(ff, opt.Cluster)
		// Refine into level l+1 index space and clip to domain.
		fineDomain := h.levelDomain(l + 1)
		var fine []Box
		for _, b := range boxes {
			rb := b.Refine(h.Ratio).Intersect(fineDomain)
			if !rb.Empty() {
				fine = append(fine, rb)
			}
		}
		if opt.MaxPatchCells > 0 {
			fine = SplitLargeBoxes(fine, opt.MaxPatchCells)
		}
		newBoxes[l+1] = fine
	}

	// Install new levels 1..maxNew.
	work := opt.Workload
	if work == nil {
		work = UniformWorkload
	}
	next := *h
	next.Regrids++
	next.levels = []*Level{h.levels[0]}
	for l := 1; l <= maxNew; l++ {
		boxes := newBoxes[l]
		if len(boxes) == 0 {
			break
		}
		owners := h.Balancer.Assign(boxes, l, h.NumRanks, work)
		lv := &Level{Index: l, Domain: h.levelDomain(l)}
		for i, b := range boxes {
			p := h.survivor(l, b)
			switch {
			case p == nil:
				p = &Patch{ID: next.takeID(), Level: l, Box: b, Owner: owners[i]}
			case p.Owner != owners[i]:
				p = &Patch{ID: p.ID, Level: l, Box: b, Owner: owners[i]}
			}
			lv.Patches = append(lv.Patches, p)
		}
		next.levels = append(next.levels, lv)
	}
	return &next
}

// survivor returns h's patch with box b on refined level l, or nil.
func (h *Hierarchy) survivor(l int, b Box) *Patch {
	if l >= len(h.levels) {
		return nil
	}
	for _, p := range h.levels[l].Patches {
		if p.Box == b {
			return p
		}
	}
	return nil
}

// levelDomain is the problem domain in level l's index space.
func (h *Hierarchy) levelDomain(l int) Box {
	d := h.Domain
	for i := 0; i < l; i++ {
		d = d.Refine(h.Ratio)
	}
	return d
}

// LevelDomain exposes levelDomain for callers sizing fields.
func (h *Hierarchy) LevelDomain(l int) Box { return h.levelDomain(l) }

// SplitLargeBoxes bisects boxes along their longer axis until none
// exceeds maxCells.
func SplitLargeBoxes(boxes []Box, maxCells int) []Box {
	var out []Box
	stack := append([]Box(nil), boxes...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b.Empty() {
			continue
		}
		if b.NumCells() <= maxCells {
			out = append(out, b)
			continue
		}
		nx, ny := b.Size()
		if nx >= ny {
			l, r := b.SplitX(b.Lo[0] + nx/2)
			stack = append(stack, l, r)
		} else {
			bt, tp := b.SplitY(b.Lo[1] + ny/2)
			stack = append(stack, bt, tp)
		}
	}
	return out
}

// Census summarizes the hierarchy per level: patch count, cell count,
// and flagged coverage fraction of the domain — the data behind the
// paper's Fig 4 patch-distribution plot.
type Census struct {
	Level    int
	Patches  int
	Cells    int
	Coverage float64 // cells / level-domain cells
}

// CensusReport computes per-level statistics.
func (h *Hierarchy) CensusReport() []Census {
	out := make([]Census, len(h.levels))
	for i, lv := range h.levels {
		out[i] = Census{
			Level:    i,
			Patches:  len(lv.Patches),
			Cells:    lv.NumCells(),
			Coverage: float64(lv.NumCells()) / float64(lv.Domain.NumCells()),
		}
	}
	return out
}

// String renders a short textual summary.
func (h *Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hierarchy: domain=%v ratio=%d levels=%d\n", h.Domain, h.Ratio, len(h.levels))
	for _, c := range h.CensusReport() {
		fmt.Fprintf(&b, "  level %d: %4d patches %8d cells (%.1f%% coverage)\n",
			c.Level, c.Patches, c.Cells, 100*c.Coverage)
	}
	return b.String()
}
