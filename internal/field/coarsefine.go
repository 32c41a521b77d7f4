package field

import (
	"math"

	"ccahydro/internal/amr"
)

// Coarse–fine transfer: prolongation (coarse → fine) and restriction
// (fine → coarse). These are the paper's Interpolation components'
// working parts (ProlongRestrict in the shock assembly).
//
// Both directions are implemented with a "shadow" intermediate: a
// temporary patch in the coarse index space aligned with each fine
// patch. Filling the shadow (prolongation) and draining the averaged
// temporaries (restriction) are the shadow and restrict phases of the
// schedule engine that also runs ghost exchange and remap, which
// keeps the message passing identical on all ranks.

// ProlongKind selects the interpolation operator.
type ProlongKind int

const (
	// ProlongInjection copies the coarse value to all covered fine
	// cells (piecewise constant).
	ProlongInjection ProlongKind = iota
	// ProlongLinear uses bilinear interpolation with central slopes —
	// second-order accurate for smooth data.
	ProlongLinear
)

// shadowBox is the coarse-space footprint of a fine patch's shadow:
// its coarsened box grown enough to supply ghost fills and slope
// stencils, clipped to the coarse level domain (values outside the
// domain are filled by physical BCs on the coarse level before
// prolongation). Ranks that hold no shadow compute the same box from
// replicated metadata, so every rank enumerates identical transfers.
func (d *DataObject) shadowBox(fine *amr.Patch) amr.Box {
	cg := d.Ghost/d.h.Ratio + 2
	return fine.Box.Coarsen(d.h.Ratio).Grow(cg).
		Intersect(d.h.LevelDomain(fine.Level - 1).Grow(d.Ghost))
}

// coarseScratch allocates one ghost-free coarse-space patch over
// box(fp) for every owned fine patch fp of lv, keyed by fine patch ID.
func (d *DataObject) coarseScratch(lv *amr.Level, box func(*amr.Patch) amr.Box) map[int]*PatchData {
	out := make(map[int]*PatchData)
	for _, fp := range lv.Patches {
		if d.owns(fp) {
			tp := &amr.Patch{ID: fp.ID, Level: fp.Level - 1, Box: box(fp), Owner: fp.Owner}
			out[fp.ID] = NewPatchData(tp, d.NComp, 0)
		}
	}
	return out
}

// ghostRings returns the ghost ring, fp.Box.Grow(Ghost) minus fp.Box,
// of every owned fine patch fp of lv, keyed by fine patch ID.
func (d *DataObject) ghostRings(lv *amr.Level) map[int][]amr.Box {
	out := make(map[int][]amr.Box)
	for _, fp := range lv.Patches {
		if d.owns(fp) {
			out[fp.ID] = fp.Box.Grow(d.Ghost).Subtract(fp.Box)
		}
	}
	return out
}

// buildShadowTransfers enumerates coarse-interior → shadow moves.
func (d *DataObject) buildShadowTransfers(level int) []transfer {
	coarse := d.h.Level(level - 1)
	var ts []transfer
	for _, fp := range d.h.Level(level).Patches {
		shBox := d.shadowBox(fp)
		coarseDomain := d.h.LevelDomain(level - 1)
		for _, cp := range coarse.Patches {
			// Physical-ghost regions first (the parts of cp's grown box
			// outside the domain, filled by BCs): interior-sourced
			// transfers appended later overwrite them wherever real
			// data exists. cp's *in-domain* ghosts are never sourced —
			// they may be stale or unfilled (e.g. during a remap).
			grown := cp.Box.Grow(d.Ghost).Intersect(coarseDomain.Grow(d.Ghost))
			for _, outside := range grown.Subtract(coarseDomain) {
				ov := shBox.Intersect(outside)
				if ov.Empty() {
					continue
				}
				ts = append(ts, transfer{
					srcID: cp.ID, dstID: fp.ID,
					srcOwner: cp.Owner, dstOwner: fp.Owner,
					region: ov,
				})
			}
			if ov := shBox.Intersect(cp.Box); !ov.Empty() {
				ts = append(ts, transfer{
					srcID: cp.ID, dstID: fp.ID,
					srcOwner: cp.Owner, dstOwner: fp.Owner,
					region: ov,
				})
			}
		}
	}
	return ts
}

// fillShadows populates coarse-space shadows for every local fine patch
// on level, through the cached per-(phase, level) schedule — the
// shadow patches, ghost rings, transfer list, and message plan are
// built once per regrid and reused by every fill; collective. It
// returns the schedule, whose scratch holds the shadows.
func (d *DataObject) fillShadows(level int) *schedule {
	s := d.scheduleFor(phaseShadow, level)
	d.start(s, d.local, s.scratch).Finish()
	return s
}

// interpolate writes fine values in region (fine index space) from the
// shadow coarse data.
func interpolate(fine *PatchData, shadow *PatchData, region amr.Box, ratio int, kind ProlongKind) {
	r := region.Intersect(fine.GrownBox())
	if r.Empty() {
		return
	}
	inv := 1.0 / float64(ratio)
	for c := 0; c < fine.NComp; c++ {
		for j := r.Lo[1]; j <= r.Hi[1]; j++ {
			cj := floorDiv(j, ratio)
			// Position of fine cell center within the coarse cell,
			// in [-0.5, 0.5).
			fy := (float64(j-cj*ratio)+0.5)*inv - 0.5
			for i := r.Lo[0]; i <= r.Hi[0]; i++ {
				ci := floorDiv(i, ratio)
				if !shadow.GrownBox().Contains(ci, cj) {
					continue
				}
				v := shadow.At(c, ci, cj)
				if kind == ProlongLinear {
					fx := (float64(i-ci*ratio)+0.5)*inv - 0.5
					sx := centralSlope(shadow, c, ci, cj, 1, 0)
					sy := centralSlope(shadow, c, ci, cj, 0, 1)
					v += fx*sx + fy*sy
				}
				fine.Set(c, i, j, v)
			}
		}
	}
}

// centralSlope returns a minmod-limited slope (zero at extrema,
// bounded by both one-sided differences), degrading to one-sided at
// shadow edges. Limiting matters: unlimited central slopes overshoot
// when prolonging across a shock or flame front and can produce
// negative densities on freshly created fine patches. For globally
// smooth (e.g. affine) data the one-sided differences agree, so the
// interpolation remains second-order exact.
func centralSlope(sh *PatchData, c, i, j, di, dj int) float64 {
	box := sh.GrownBox()
	hasM := box.Contains(i-di, j-dj)
	hasP := box.Contains(i+di, j+dj)
	switch {
	case hasM && hasP:
		fwd := sh.At(c, i+di, j+dj) - sh.At(c, i, j)
		bwd := sh.At(c, i, j) - sh.At(c, i-di, j-dj)
		if fwd*bwd <= 0 {
			return 0
		}
		if math.Abs(fwd) < math.Abs(bwd) {
			return fwd
		}
		return bwd
	case hasP:
		return sh.At(c, i+di, j+dj) - sh.At(c, i, j)
	case hasM:
		return sh.At(c, i, j) - sh.At(c, i-di, j-dj)
	}
	return 0
}

// ProlongLevel fills the whole interior of every patch on level from
// the coarser level (used to initialize freshly created fine levels).
// Collective.
func (d *DataObject) ProlongLevel(level int, kind ProlongKind) {
	if level <= 0 || level >= d.h.NumLevels() {
		return
	}
	if d.obs != nil {
		defer d.obs.Span("samr", spanName("prolong", level))()
	}
	shadows := d.fillShadows(level).scratch
	for _, fp := range d.h.Level(level).Patches {
		pd := d.local[fp.ID]
		if pd == nil {
			continue
		}
		interpolate(pd, shadows[fp.ID], fp.Box, d.h.Ratio, kind)
	}
}

// FillCoarseFineGhosts fills the ghost cells of fine patches from the
// coarse level by interpolation. Same-level exchange should run after
// to overwrite ghosts where a same-level neighbor exists (its data is
// more accurate). Collective. The ghost rings come from the cached
// shadow schedule, so a warm fill allocates nothing.
func (d *DataObject) FillCoarseFineGhosts(level int, kind ProlongKind) {
	if level <= 0 || level >= d.h.NumLevels() {
		return
	}
	if d.obs != nil {
		defer d.obs.Span("samr", spanName("cfghosts", level))()
	}
	s := d.fillShadows(level)
	for _, fp := range d.h.Level(level).Patches {
		pd := d.local[fp.ID]
		if pd == nil {
			continue
		}
		for _, g := range s.rings[fp.ID] {
			interpolate(pd, s.scratch[fp.ID], g, d.h.Ratio, kind)
		}
	}
}

// RestrictLevel averages level data onto the underlying cells of
// level-1 (conservative full-weighting). Collective.
func (d *DataObject) RestrictLevel(level int) {
	if level <= 0 || level >= d.h.NumLevels() {
		return
	}
	if d.obs != nil {
		defer d.obs.Span("samr", spanName("restrict", level))()
	}
	ratio := d.h.Ratio
	// Average fine data into the schedule's cached coarse-space
	// temporaries (every interior cell is rewritten, so reuse is safe).
	s := d.scheduleFor(phaseRestrict, level)
	for _, fp := range d.h.Level(level).Patches {
		pd := d.local[fp.ID]
		if pd == nil {
			continue
		}
		tmp := s.scratch[fp.ID]
		cbox := tmp.Interior()
		w := 1.0 / float64(ratio*ratio)
		for c := 0; c < d.NComp; c++ {
			for j := cbox.Lo[1]; j <= cbox.Hi[1]; j++ {
				for i := cbox.Lo[0]; i <= cbox.Hi[0]; i++ {
					var sum float64
					for dj := 0; dj < ratio; dj++ {
						for di := 0; di < ratio; di++ {
							fi, fj := i*ratio+di, j*ratio+dj
							if fp.Box.Contains(fi, fj) {
								sum += pd.At(c, fi, fj)
							}
						}
					}
					tmp.Set(c, i, j, sum*w)
				}
			}
		}
	}
	// Move averaged regions into the coarse patches.
	d.start(s, s.scratch, d.local).Finish()
}

// buildRestrictTransfers enumerates the coarsened-fine → coarse moves
// of a restriction (deterministic from the hierarchy alone, so the
// list is schedule-cacheable).
func (d *DataObject) buildRestrictTransfers(level int) []transfer {
	ratio := d.h.Ratio
	coarse := d.h.Level(level - 1)
	var ts []transfer
	for _, fp := range d.h.Level(level).Patches {
		cbox := fp.Box.Coarsen(ratio)
		for _, cp := range coarse.Patches {
			ov := cbox.Intersect(cp.Box)
			if ov.Empty() {
				continue
			}
			ts = append(ts, transfer{
				srcID: fp.ID, dstID: cp.ID,
				srcOwner: fp.Owner, dstOwner: cp.Owner,
				region: ov,
			})
		}
	}
	return ts
}

// Remap moves this object's data onto a rebuilt hierarchy: each new
// level is first prolonged from the new coarser level, then overwritten
// wherever old same-level patches overlap. Returns the new DataObject;
// the receiver is left untouched. Collective.
//
// The copy-old-data transfers of every level form one multi-level
// exchange epoch: all levels' sends and receives are posted up front
// (they read only the immutable old object and are tagged per level),
// and each level's exchange is finished only when the top-down
// prolongation sweep reaches it — deep hierarchies keep all remap
// traffic in flight at once instead of one blocking exchange per
// level. The apply order per level (prolong, then old-data overwrite)
// is unchanged, so results are bit-for-bit those of the blocking remap.
func (d *DataObject) Remap(newH *amr.Hierarchy, kind ProlongKind) *DataObject {
	nd := New(d.Name, newH, d.NComp, d.Ghost, d.comm)
	nd.Names = d.Names
	nd.obs = d.obs
	if d.obs != nil {
		defer d.obs.Span("samr", "remap "+d.Name)()
	}
	maxL := newH.NumLevels()
	exs := make([]*Exchange, maxL)
	for l := 0; l < maxL && l < d.h.NumLevels(); l++ {
		// Copy old level-l data where it overlaps new level-l patches.
		var ts []transfer
		for _, np := range newH.Level(l).Patches {
			for _, op := range d.h.Level(l).Patches {
				ov := np.Box.Intersect(op.Box)
				if ov.Empty() {
					continue
				}
				ts = append(ts, transfer{
					srcID: op.ID, dstID: np.ID,
					srcOwner: op.Owner, dstOwner: np.Owner,
					region: ov,
				})
			}
		}
		exs[l] = nd.start(nd.newSchedule(phaseRemap, l, ts), d.local, nd.local)
	}
	for l := 0; l < maxL; l++ {
		if l > 0 {
			nd.ProlongLevel(l, kind)
		}
		if exs[l] != nil {
			exs[l].Finish()
		}
	}
	return nd
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
