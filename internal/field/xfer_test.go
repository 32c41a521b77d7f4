package field

import (
	"sync"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/mpi"
)

// twoLevel builds a serial 2-level hierarchy with a refined window and
// returns a painted 2-component data object over it.
func twoLevel(t *testing.T) (*amr.Hierarchy, *DataObject) {
	t.Helper()
	h := amr.NewHierarchy(amr.NewBox(0, 0, 31, 31), 2, 2, 1)
	f := amr.NewFlagField(h.LevelDomain(0))
	f.SetBox(amr.NewBox(8, 8, 23, 23))
	h.Regrid([]*amr.FlagField{f}, amr.DefaultRegridOptions)
	d := New("u", h, 2, 2, nil)
	paintOwned(d, 0)
	paintOwned(d, 1)
	return h, d
}

// TestXferScheduleCachedPerPhaseAndLevel asserts the transfer-schedule
// cache is keyed by (phase, level): repeated coarse–fine fills and
// restrictions rebuild nothing, and the prolongation path shares the
// shadow schedule with the ghost-fill path.
func TestXferScheduleCachedPerPhaseAndLevel(t *testing.T) {
	_, d := twoLevel(t)
	for i := 0; i < 3; i++ {
		d.FillCoarseFineGhosts(1, ProlongLinear)
	}
	if got := d.XferScheduleBuilds(); got != 1 {
		t.Fatalf("3 coarse-fine fills built %d schedules, want 1", got)
	}
	d.ProlongLevel(1, ProlongLinear) // same phaseShadow schedule
	if got := d.XferScheduleBuilds(); got != 1 {
		t.Fatalf("prolong after fills built %d schedules, want 1 (shadow schedule not shared)", got)
	}
	for i := 0; i < 3; i++ {
		d.RestrictLevel(1)
	}
	if got := d.XferScheduleBuilds(); got != 2 {
		t.Fatalf("3 restrictions built %d schedules total, want 2", got)
	}
}

// TestXferScheduleCacheInvalidatesOnRegrid is the staleness contract for
// the coarse–fine schedules: an in-place regrid bumps the hierarchy
// generation, and the next fill/restrict of each phase must rebuild its
// schedule exactly once — a reused stale schedule would move data for
// patches that no longer exist.
func TestXferScheduleCacheInvalidatesOnRegrid(t *testing.T) {
	h, d := twoLevel(t)
	d.FillCoarseFineGhosts(1, ProlongLinear)
	d.RestrictLevel(1)
	if got := d.XferScheduleBuilds(); got != 2 {
		t.Fatalf("warm-up built %d schedules, want 2", got)
	}
	gen0 := h.Generation()
	f := amr.NewFlagField(h.LevelDomain(0))
	f.SetBox(amr.NewBox(4, 4, 19, 19))
	h.Regrid([]*amr.FlagField{f}, amr.DefaultRegridOptions)
	if h.Generation() == gen0 {
		t.Fatalf("regrid did not bump the generation (%d)", gen0)
	}
	// Same level object index, new generation: both phases must miss.
	d.FillCoarseFineGhosts(1, ProlongLinear)
	d.RestrictLevel(1)
	if got := d.XferScheduleBuilds(); got != 4 {
		t.Fatalf("post-regrid fill+restrict built %d schedules total, want 4 (stale (level,generation) schedule reused)", got)
	}
	// And the rebuilt schedules are cached again.
	d.FillCoarseFineGhosts(1, ProlongLinear)
	d.RestrictLevel(1)
	if got := d.XferScheduleBuilds(); got != 4 {
		t.Fatalf("steady state after regrid built %d schedules total, want 4", got)
	}
}

// TestFillCoarseFineGhostsSteadyStateZeroAlloc: the fine patches'
// ghost rings live on the cached shadow schedule beside its transfers,
// so a warm coarse–fine fill allocates nothing, and the local patch
// list it shares with every level loop is cached the same way.
func TestFillCoarseFineGhostsSteadyStateZeroAlloc(t *testing.T) {
	_, d := twoLevel(t)
	d.FillCoarseFineGhosts(1, ProlongLinear)
	if avg := testing.AllocsPerRun(10, func() { d.FillCoarseFineGhosts(1, ProlongLinear) }); avg > 0 {
		t.Errorf("warm coarse-fine fill allocates %.1f objects per call, want 0", avg)
	}
	d.LocalPatches(1)
	if avg := testing.AllocsPerRun(10, func() { d.LocalPatches(1) }); avg > 0 {
		t.Errorf("warm LocalPatches allocates %.1f objects per call, want 0", avg)
	}
}

// TestRestrictLevelSteadyStateZeroAlloc extends the persistent-
// communication contract to restriction: once the restrict schedule,
// its coarse-space temporaries and its buffers are warm, a restriction
// allocates nothing, serially and on 4 lockstep ranks.
func TestRestrictLevelSteadyStateZeroAlloc(t *testing.T) {
	_, d := twoLevel(t)
	d.RestrictLevel(1)
	if avg := testing.AllocsPerRun(10, func() { d.RestrictLevel(1) }); avg > 0 {
		t.Errorf("warm serial restriction allocates %.1f objects per call, want 0", avg)
	}

	const p = 4
	blocks, owners := raggedBlocks(24, p)
	var mu sync.Mutex
	sends := 0
	step, stop := lockstep(p, func(comm *mpi.Comm) func() {
		h := amr.NewHierarchyDecomposed(amr.NewBox(0, 0, 23, 23), 2, 2, p, blocks, owners)
		f := amr.NewFlagField(h.LevelDomain(0))
		f.SetBox(amr.NewBox(4, 4, 17, 15))
		h.Regrid([]*amr.FlagField{f}, amr.DefaultRegridOptions)
		d := New("u", h, 2, 2, comm)
		paintOwned(d, 0)
		paintOwned(d, 1)
		return func() {
			before := comm.Stats().Sends
			d.RestrictLevel(1)
			if n := comm.Stats().Sends - before; n > 0 {
				mu.Lock()
				sends += n
				mu.Unlock()
			}
		}
	})
	defer stop()
	if avg := testing.AllocsPerRun(10, step); avg > 0 {
		t.Errorf("warm 4-rank restriction allocates %.1f objects per round, want 0", avg)
	}
	if sends == 0 {
		t.Fatal("4-rank restriction sent no messages — decomposition too simple for the test")
	}
}

// xferRegridSequence runs the mid-run regrid scenario on one rank
// (comm nil for the serial replica): build a 2-level hierarchy, warm the
// coarse–fine schedules, regrid GrACE-style into a fresh hierarchy
// object carrying the generation counter forward, remap, and warm the
// new object's schedules. It returns the remapped object and the two
// build counters.
func xferRegridSequence(comm *mpi.Comm, p int, blocks []amr.Box, owners []int) (nd *DataObject, oldBuilds, newBuilds int) {
	domain := amr.NewBox(0, 0, 23, 23)
	h := amr.NewHierarchyDecomposed(domain, 2, 2, p, blocks, owners)
	f := amr.NewFlagField(h.LevelDomain(0))
	f.SetBox(amr.NewBox(4, 4, 17, 15))
	h.Regrid([]*amr.FlagField{f}, amr.DefaultRegridOptions)
	d := New("u", h, 2, 2, comm)
	paintOwned(d, 0)
	paintOwned(d, 1)
	for i := 0; i < 2; i++ {
		d.FillCoarseFineGhosts(1, ProlongLinear)
		d.ExchangeGhosts(1)
		d.RestrictLevel(1)
	}
	// Mid-run regrid as the mesh component does it: a fresh hierarchy
	// object (same level-0 decomposition) inherits the generation
	// counter, regrids with new flags, and the data remaps onto it.
	h2 := amr.NewHierarchyDecomposed(domain, 2, 2, p, blocks, owners)
	h2.Regrids = h.Regrids
	f2 := amr.NewFlagField(h2.LevelDomain(0))
	f2.SetBox(amr.NewBox(8, 10, 21, 21))
	h2.Regrid([]*amr.FlagField{f2}, amr.DefaultRegridOptions)
	nd = d.Remap(h2, ProlongLinear)
	for i := 0; i < 2; i++ {
		nd.FillCoarseFineGhosts(1, ProlongLinear)
		nd.ExchangeGhosts(1)
		nd.RestrictLevel(1)
	}
	return nd, d.XferScheduleBuilds(), nd.XferScheduleBuilds()
}

// TestXferScheduleMidRunRegridParallelMatchesSerial runs the mid-run
// regrid scenario on 4 ranks and serially, and demands (a) every rank
// built each phase's schedule exactly once per hierarchy generation it
// touched, and (b) every cell of every patch — interiors and ghosts,
// both levels — of the remapped object is bit-for-bit the serial
// result. A stale schedule surviving the regrid would fail both.
func TestXferScheduleMidRunRegridParallelMatchesSerial(t *testing.T) {
	const p = 4
	blocks, owners := raggedBlocks(24, p)

	collect := func(d *DataObject, into map[int][]float64, mu *sync.Mutex) {
		mu.Lock()
		defer mu.Unlock()
		for l := 0; l < d.Hierarchy().NumLevels(); l++ {
			for _, pd := range d.LocalPatches(l) {
				g := pd.GrownBox()
				var vals []float64
				for c := 0; c < d.NComp; c++ {
					for j := g.Lo[1]; j <= g.Hi[1]; j++ {
						for i := g.Lo[0]; i <= g.Hi[0]; i++ {
							vals = append(vals, pd.At(c, i, j))
						}
					}
				}
				into[pd.Patch.ID] = vals
			}
		}
	}

	var mu sync.Mutex
	serial := make(map[int][]float64)
	nd, ob, nb := xferRegridSequence(nil, p, blocks, owners)
	collect(nd, serial, &mu)
	if ob != 2 || nb != 2 {
		t.Fatalf("serial replica built %d+%d schedules, want 2+2", ob, nb)
	}

	par := make(map[int][]float64)
	mpi.Run(p, mpi.CPlantModel, func(comm *mpi.Comm) {
		nd, ob, nb := xferRegridSequence(comm, p, blocks, owners)
		// One shadow + one restrict build per object on every rank —
		// never a rebuild per call, never a stale reuse across the
		// remap (the remapped object starts from its own empty cache).
		if ob != 2 || nb != 2 {
			t.Errorf("rank %d built %d+%d schedules, want 2+2", comm.Rank(), ob, nb)
		}
		collect(nd, par, &mu)
	})

	if len(par) != len(serial) || len(par) == 0 {
		t.Fatalf("collected %d parallel vs %d serial patches", len(par), len(serial))
	}
	for id, want := range serial {
		got := par[id]
		if len(got) != len(want) {
			t.Fatalf("patch %d: %d vs %d values", id, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("patch %d value %d: parallel %v, serial %v", id, k, got[k], want[k])
			}
		}
	}
}
