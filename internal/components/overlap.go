package components

import (
	"ccahydro/internal/amr"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
)

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
// level scratch and reused by every RHS stage. So are the plan's two
// pool bodies: method values bound in ensure that read the stage's
// port, output arrays and spacing from the plan, so a warm stage
// builds no closure.
type stripPlan struct {
	patches []*field.PatchData
	ghost   int
	items   []stripItem
	inner   []amr.Box // Interior().Grow(-ghost) per patch, for the interior pass

	// innerCells and stripCells count the cells of the two passes, the
	// work counts a charged evaluation puts on the virtual clock.
	innerCells, stripCells int

	// The stage being evaluated, set by evalLevelOverlapped.
	rhs              PatchRHSPort
	out              []*field.PatchData
	dx, dy           float64
	innerFn, stripFn func(w, i int)
}

// evalInner evaluates patch i's inner region.
func (sp *stripPlan) evalInner(_, i int) {
	sp.rhs.EvalRegion(sp.patches[i], sp.out[i], sp.inner[i], sp.dx, sp.dy)
}

// evalStrip evaluates boundary strip k.
func (sp *stripPlan) evalStrip(_, k int) {
	it := sp.items[k]
	sp.rhs.EvalRegion(sp.patches[it.pi], sp.out[it.pi], it.box, sp.dx, sp.dy)
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
	if sp.innerFn == nil {
		sp.innerFn, sp.stripFn = sp.evalInner, sp.evalStrip
	}
	sp.items = sp.items[:0]
	sp.inner = sp.inner[:0]
	sp.innerCells, sp.stripCells = 0, 0
	for i, pd := range patches {
		inner := pd.Interior().Grow(-ghost)
		sp.inner = append(sp.inner, inner)
		sp.innerCells += inner.NumCells()
		sp.stripCells += pd.Interior().NumCells() - inner.NumCells()
		for _, s := range pd.Interior().Subtract(inner) {
			for _, seg := range amr.SplitLargeBoxes([]amr.Box{s}, stripSegMaxCells) {
				sp.items = append(sp.items, stripItem{pi: i, box: seg})
			}
		}
	}
}

// ghostFill is the one ghost protocol for one level of a field:
//
//	coarse BCs        physical BCs on level-1 (its ghosts feed the
//	                  interpolation)
//	coarse–fine fill  interpolate ghosts from the coarser level
//	exchange          same-level copies, overriding interpolated
//	                  ghosts wherever a real neighbor exists
//	level BCs         physical BCs on the level; they read seam
//	                  ghosts, so they follow the exchange
//
// start and finish split it around the exchange so callers can compute
// while seam messages are in flight; fill runs it blocking. Every
// stage is collective, so callers run it on the calling goroutine.
type ghostFill struct {
	d     *field.DataObject
	bc    BCPort
	name  string
	level int
}

func (g ghostFill) start() *field.Exchange {
	if g.level > 0 {
		g.bc.Apply(g.name, g.level-1)
		g.d.FillCoarseFineGhosts(g.level, field.ProlongLinear)
	}
	return g.d.ExchangeGhostsStart(g.level)
}

func (g ghostFill) finish(ex *field.Exchange) {
	ex.Finish()
	g.bc.Apply(g.name, g.level)
}

func (g ghostFill) fill() { g.finish(g.start()) }

// evalLevelOverlapped runs the ghost protocol for one level and writes
// the RHS of every local patch into out, overlapping the same-level
// exchange with compute:
//
//	gf.start                 coarse-level fill; seam messages go into
//	                         flight
//	evaluate inner regions   interior.Grow(-Ghost): reads never leave
//	                         the interior (stencil ≤ Ghost)
//	gf.finish                drain the exchange, apply the level's BCs
//	evaluate boundary strips one pool epoch over the interleaved
//	                         cross-patch strip plan
//
// The split is engaged uniformly (serial and parallel, any pool width)
// so every configuration exercises identical arithmetic; PatchRHSPort
// providers guarantee disjoint regions reproduce a whole-interior
// evaluation bit for bit.
//
// A non-nil clock is charged rkcCellCost per evaluated cell: the inner
// cells between start and finish, so message flight hides behind them,
// and the strip cells after finish.
func evalLevelOverlapped(gf ghostFill, patches, out []*field.PatchData,
	dx, dy float64, pool *exec.Pool, rhs PatchRHSPort, sp *stripPlan, clock *mpi.Comm) {
	sp.ensure(patches, gf.d.Ghost)
	sp.rhs, sp.out, sp.dx, sp.dy = rhs, out, dx, dy
	ex := gf.start()
	pool.ForEach(len(patches), sp.innerFn)
	if clock != nil {
		clock.Charge(float64(sp.innerCells) * rkcCellCost)
	}
	gf.finish(ex)
	pool.ForEach(len(sp.items), sp.stripFn)
	if clock != nil {
		clock.Charge(float64(sp.stripCells) * rkcCellCost)
	}
}
