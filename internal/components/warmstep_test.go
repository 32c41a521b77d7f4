package components

import (
	"strconv"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
)

// shockRig is a toy shock–interface assembly (the wiring of
// scenarios/shockinterface.scn) on a private pool of a given width.
type shockRig struct {
	f      *cca.Framework
	grace  *GrACEComponent
	rk2    *ExplicitIntegratorRK2
	bc     *BoundaryConditions
	driver *ShockDriver
}

// newShockRig assembles the shock problem at 32×16 on two levels with
// patches of at most maxPatchCells cells, and runs it for steps steps
// (regridding every 5).
func newShockRig(t *testing.T, width, maxPatchCells, steps int) *shockRig {
	t.Helper()
	f := cca.NewFramework(NewRepository(), nil)
	for _, c := range [][2]string{
		{"GrACEComponent", "grace"}, {"GasProperties", "gas"}, {"ConicalInterfaceIC", "ic"},
		{"States", "states"}, {"GodunovFlux", "flux"}, {"InviscidFlux", "inviscid"},
		{"CharacteristicQuantities", "chars"}, {"BoundaryConditions", "bc"},
		{"ExplicitIntegratorRK2", "rk2"}, {"ErrorEstAndRegrid", "regrid"},
		{"ExecutionComponent", "exec"}, {"ShockDriver", "driver"},
	} {
		params := map[string][][2]string{
			"grace": {{"nx", "32"}, {"ny", "16"}, {"lx", "2.0"}, {"ly", "1.0"}, {"maxLevels", "2"},
				{"maxPatchCells", strconv.Itoa(maxPatchCells)}},
			"exec":   {{"workers", strconv.Itoa(width)}},
			"driver": {{"maxSteps", strconv.Itoa(steps)}, {"tEnd", "10"}, {"regridEvery", "5"}},
		}[c[1]]
		for _, p := range params {
			mustDo(t, f.SetParameter(c[1], p[0], p[1]))
		}
		mustDo(t, f.Instantiate(c[0], c[1]))
	}
	for _, w := range [][4]string{
		{"ic", "gasProperties", "gas", "properties"},
		{"inviscid", "states", "states", "states"},
		{"inviscid", "flux", "flux", "flux"},
		{"inviscid", "gasProperties", "gas", "properties"},
		{"inviscid", "exec", "exec", "exec"},
		{"chars", "gasProperties", "gas", "properties"},
		{"chars", "exec", "exec", "exec"},
		{"bc", "mesh", "grace", "mesh"},
		{"rk2", "patchRHS", "inviscid", "patchRHS"},
		{"rk2", "bc", "bc", "bc"},
		{"rk2", "exec", "exec", "exec"},
		{"driver", "mesh", "grace", "mesh"},
		{"driver", "ic", "ic", "ic"},
		{"driver", "integrator", "rk2", "integrator"},
		{"driver", "characteristics", "chars", "characteristics"},
		{"driver", "regrid", "regrid", "regrid"},
		{"driver", "bc", "bc", "bc"},
		{"driver", "exec", "exec", "exec"},
	} {
		mustDo(t, f.Connect(w[0], w[1], w[2], w[3]))
	}
	mustDo(t, f.Go("driver", "go"))
	lookup := func(name string) cca.Component {
		c, err := f.Lookup(name)
		mustDo(t, err)
		return c
	}
	r := &shockRig{
		f:      f,
		grace:  lookup("grace").(*GrACEComponent),
		rk2:    lookup("rk2").(*ExplicitIntegratorRK2),
		bc:     lookup("bc").(*BoundaryConditions),
		driver: lookup("driver").(*ShockDriver),
	}
	if n := r.grace.Hierarchy().NumLevels(); n != 2 {
		t.Fatalf("toy shock has %d levels, want 2", n)
	}
	return r
}

// step is one warm shock step without the dt reduction: AdvanceLevel
// on every level, then the composite circulation.
func (r *shockRig) step(t *testing.T) {
	h := r.grace.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		if err := r.rk2.AdvanceLevel(r.grace, "U", l, 0, 1e-4); err != nil {
			t.Fatal(err)
		}
	}
	r.driver.compositeCirculation(r.grace, "U", r.bc)
}

// A warm shock step allocates nothing at width 1, on one fine patch or
// several: RHSRegion runs its sweeps as plain calls, the stage
// updates, strip evaluations and circulation sums are bodies bound once
// per hierarchy generation, and the ghost rings, uncovered boxes and
// patch lists are cached. On a width-2 pool the only allocations are
// the fan-out closures of top-level RHSRegion calls: two per call on a
// level with a single patch (its interior pass runs outside any epoch,
// once per RK2 stage), none on a level whose patches fan out. So the
// count is at most four per level and does not grow with patch or
// strip count.
func TestWarmShockStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		width, maxPatchCells int
		want                 float64
	}{
		{"w1/one fine patch", 1, 4096, 0},
		{"w1/many fine patches", 1, 64, 0},
		{"w2/one fine patch", 2, 4096, 8},
		{"w2/many fine patches", 2, 64, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newShockRig(t, tc.width, tc.maxPatchCells, 7)
			h := r.grace.Hierarchy()
			if coarse := len(h.Level(0).Patches); coarse != 1 {
				t.Fatalf("%d level-0 patches, want 1", coarse)
			}
			if fine := len(h.Level(1).Patches); (tc.maxPatchCells == 4096) != (fine == 1) {
				t.Fatalf("%d level-1 patches at maxPatchCells %d", fine, tc.maxPatchCells)
			}
			r.step(t)
			if raceEnabled {
				t.Skip("sync.Pool drops Puts at random under -race; the warm steps above still ran")
			}
			got := testing.AllocsPerRun(20, func() { r.step(t) })
			// Width 1 is exact. A width-2 epoch can also miss the sweep
			// scratch pool (sync.Pool loses its contents when the count
			// switches GOMAXPROCS, and a preempted chunk holds its
			// scratch), so there the closures are a ceiling.
			if got != tc.want && (tc.width == 1 || got > tc.want) {
				t.Errorf("warm step allocates %v objects, want %v", got, tc.want)
			}
		})
	}
}

// The cached uncovered boxes equal a fresh Subtract chain — each local
// interior minus every coarsened finer patch in patch order, box order
// included — before and after a regrid, and the regrid rebuilds them.
func TestCirculationMaskMatchesSubtractChain(t *testing.T) {
	r := newShockRig(t, 1, 16, 3)
	check := func(when string) {
		t.Helper()
		d := r.grace.Field("U")
		h := d.Hierarchy()
		levels := r.driver.circLevels(d)
		if len(levels) != h.NumLevels() {
			t.Fatalf("%s: %d cached levels, hierarchy has %d", when, len(levels), h.NumLevels())
		}
		for l, cl := range levels {
			patches := d.LocalPatches(l)
			if len(cl.parts) != len(patches) {
				t.Fatalf("%s: level %d caches %d patches, %d local", when, l, len(cl.parts), len(patches))
			}
			for n, pd := range patches {
				want := []amr.Box{pd.Interior()}
				if l+1 < h.NumLevels() {
					for _, fp := range h.Level(l + 1).Patches {
						var next []amr.Box
						for _, b := range want {
							next = append(next, b.Subtract(fp.Box.Coarsen(h.Ratio))...)
						}
						want = next
					}
				}
				got := cl.parts[n]
				if len(got) != len(want) {
					t.Fatalf("%s: level %d patch %d: %d cached boxes, %d fresh", when, l, n, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s: level %d patch %d box %d = %v, fresh chain %v", when, l, n, k, got[k], want[k])
					}
				}
			}
		}
	}
	check("before regrid")
	cached := r.driver.circLevels(r.grace.Field("U"))[0]
	regrid, err := r.f.Lookup("regrid")
	mustDo(t, err)
	regrid.(*ErrorEstAndRegrid).EstimateAndRegrid(r.grace, "U")
	r.step(t)
	if r.driver.circLevels(r.grace.Field("U"))[0] == cached {
		t.Fatal("the regrid kept the cached circulation geometry")
	}
	check("after regrid")
}
