package components

import (
	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
)

// regionRHS resolves the optional region-evaluation extension of a
// patch-RHS wire. Proxy components (PatchRHSMonitor) implement
// EvalRegion by delegation and report through SupportsRegion whether
// the component actually behind the wire does too.
func regionRHS(rhs PatchRHSPort) RegionRHSPort {
	rr, ok := rhs.(RegionRHSPort)
	if !ok {
		return nil
	}
	if p, ok := rhs.(interface{ SupportsRegion() bool }); ok && !p.SupportsRegion() {
		return nil
	}
	return rr
}

// stripItem is one boundary strip of one patch in the interleaved
// post-exchange work list.
type stripItem struct {
	pi  int // index into the level's patch slice
	box amr.Box
}

// stripPlan caches a level's flattened boundary-strip work list. The
// old per-patch fan-out made each pool chunk evaluate all (≤ 4) strips
// of its patches, so a chunk holding a patch with wide strips became
// the epoch's tail while other workers idled. The plan flattens every
// patch's strips into one list and splits strips larger than
// stripSegMaxCells into segments, so the items are near-uniform and
// the pool's contiguous chunking cannot concentrate the wide strips
// into one straggler chunk (the benchmark's exec.speedup_wN on
// flame_wN carries the end-to-end effect; a round-robin interleave by
// strip position was measured *worse* — it groups same-position,
// similar-width strips into contiguous runs). Strips are disjoint cell regions and each
// writes only its own patch's out array, so the re-partitioning is
// race-free and bit-for-bit (per-cell arithmetic does not depend on
// the worker slot).
//
// The geometry depends only on the patch list and ghost width, so the
// plan is built once per (cache entry, regrid) alongside the caller's
// level scratch and reused by every RHS stage.
type stripPlan struct {
	patches []*field.PatchData
	ghost   int
	items   []stripItem
	inner   []amr.Box // Interior().Grow(-ghost) per patch, for the interior pass
}

// stripSegMaxCells caps boundary-strip work items: strips above it are
// split so no single item can dominate an epoch chunk. Boundary work
// is ~10% of a level's cells, so the extra per-segment EvalRegion
// calls cost far less than the tail they remove.
const stripSegMaxCells = 8

// ensure (re)builds the plan when the patch list or ghost width it was
// built for changed. Callers embed the plan in their per-level caches,
// which are invalidated on regrid by patch identity, so in steady state
// this is a cheap comparison.
func (sp *stripPlan) ensure(patches []*field.PatchData, ghost int) {
	if sp.ghost == ghost && samePatches(sp.patches, patches) {
		return
	}
	sp.patches = patches
	sp.ghost = ghost
	sp.items = sp.items[:0]
	sp.inner = sp.inner[:0]
	for i, pd := range patches {
		inner := pd.Interior().Grow(-ghost)
		sp.inner = append(sp.inner, inner)
		for _, s := range pd.Interior().Subtract(inner) {
			for _, seg := range amr.SplitLargeBoxes([]amr.Box{s}, stripSegMaxCells) {
				sp.items = append(sp.items, stripItem{pi: i, box: seg})
			}
		}
	}
}

// evalLevelOverlapped runs the ghost protocol for one level and writes
// the RHS of every local patch into out, overlapping the same-level
// exchange with compute when the RHS wire supports region evaluation:
//
//	preExchange              coarse-level BCs + coarse–fine fill
//	ExchangeGhostsStart      seam messages go into flight
//	evaluate inner regions   interior.Grow(-Ghost): reads never leave
//	                         the interior (stencil ≤ Ghost)
//	Finish                   drain the exchange
//	applyBC                  physical BC fills read seam ghosts, so
//	                         they must follow Finish
//	evaluate boundary strips one pool epoch over the interleaved
//	                         cross-patch strip plan
//
// The split is engaged uniformly (serial and parallel, any pool width)
// so every configuration exercises identical arithmetic; RegionRHSPort
// providers guarantee disjoint regions reproduce EvalPatch bit for
// bit. Without region support the call degrades to the blocking order:
// exchange, BCs, full-patch evaluation.
func evalLevelOverlapped(d *field.DataObject, level int, patches, out []*field.PatchData,
	dx, dy float64, pool *exec.Pool, rhs PatchRHSPort, sp *stripPlan, preExchange, applyBC func()) {
	preExchange()
	rr := regionRHS(rhs)
	if rr == nil {
		d.ExchangeGhosts(level)
		applyBC()
		pool.ForEach(len(patches), func(_, i int) {
			rhs.EvalPatch(patches[i], out[i], dx, dy)
		})
		return
	}
	sp.ensure(patches, d.Ghost)
	ex := d.ExchangeGhostsStart(level)
	pool.ForEach(len(patches), func(_, i int) {
		rr.EvalRegion(patches[i], out[i], sp.inner[i], dx, dy)
	})
	ex.Finish()
	applyBC()
	pool.ForEach(len(sp.items), func(_, k int) {
		it := sp.items[k]
		rr.EvalRegion(patches[it.pi], out[it.pi], it.box, dx, dy)
	})
}
