package components

import (
	"fmt"
	"math"
	"strconv"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
	"ccahydro/internal/telemetry"
)

// ShockDriver orchestrates the 2D shock–interface interaction (paper
// Sec. 4.3, Fig 5): CFL-controlled RK2 advance over all levels,
// periodic regridding around the shocks and the gas–gas interface, and
// the interfacial-circulation diagnostic of Fig 7.
type ShockDriver struct {
	svc cca.Services

	// Results.
	Times, Circulations []float64
	Steps               int
	FinalTime           float64

	// dts mirrors the per-step dt series so it survives checkpoint
	// round-trips like Times/Circulations do.
	dts []float64

	// circ caches the composite-circulation geometry of one field
	// object.
	circ circCache
}

// circCache is the composite-circulation geometry of one field object
// (and so of its one hierarchy): per level, each local patch's
// uncovered boxes.
type circCache struct {
	d      *field.DataObject
	levels []*circLevel
}

// circLevel is one level's share of the composite circulation: the
// local patches, the parts of each interior no finer patch covers, the
// per-patch partial sums, and the pool body that fills them (a method
// value bound once per cache entry).
type circLevel struct {
	patches []*field.PatchData
	parts   [][]amr.Box
	partial []float64
	dx, dy  float64
	sumFn   func(w, n int)
}

// sum stores patch n's circulation over its uncovered parts.
func (cl *circLevel) sum(_, n int) {
	var sum float64
	for _, region := range cl.parts[n] {
		sum += circulationRegion(cl.patches[n], region, cl.dx, cl.dy)
	}
	cl.partial[n] = sum
}

// uncoveredParts returns, per local patch of level l, the parts of its
// interior that no patch of level l+1 covers: each interior minus every
// coarsened finer box in turn, in the finer level's patch order.
func uncoveredParts(h *amr.Hierarchy, l int, patches []*field.PatchData) [][]amr.Box {
	var finer []amr.Box
	if l+1 < h.NumLevels() {
		for _, fp := range h.Level(l + 1).Patches {
			finer = append(finer, fp.Box.Coarsen(h.Ratio))
		}
	}
	out := make([][]amr.Box, len(patches))
	for n, pd := range patches {
		parts := []amr.Box{pd.Interior()}
		for _, fb := range finer {
			var next []amr.Box
			for _, p := range parts {
				next = append(next, p.Subtract(fb)...)
			}
			parts = next
		}
		out[n] = parts
	}
	return out
}

// circLevels returns the cached circulation geometry of d, rebuilding
// it for a new field object (every GrACE regrid and restore makes one).
func (sd *ShockDriver) circLevels(d *field.DataObject) []*circLevel {
	h := d.Hierarchy()
	c := &sd.circ
	if c.d == d {
		return c.levels
	}
	*c = circCache{d: d}
	for l := 0; l < h.NumLevels(); l++ {
		patches := d.LocalPatches(l)
		cl := &circLevel{
			patches: patches,
			parts:   uncoveredParts(h, l, patches),
			partial: make([]float64, len(patches)),
		}
		cl.sumFn = cl.sum
		c.levels = append(c.levels, cl)
	}
	return c.levels
}

// shockDriverName tags checkpoints written by this driver.
const shockDriverName = "shock"

var shockDriverSpec = &Spec{
	Class: "ShockDriver", New: func() cca.Component { return &ShockDriver{} },
	Params: map[string]Param{
		"tEnd":        fparam("1.0", 1e-12, 1e12), // end time in shock-crossing units
		"maxSteps":    iparam("10000", 1, 1<<20),  // hard step cap
		"regridEvery": iparam("5", 0, 1<<20),      // steps between regrids; 0 = off
		"field":       sparam("U"),                // conserved field name
	},
	Uses: []PortDecl{
		need("bc", BCPortType), need("characteristics", CharacteristicsPortType),
		use("checkpoint", CheckpointPortType), execUse,
		need("ic", ICFieldPortType),
		need("integrator", ExplicitIntegratorType), need("mesh", MeshPortType),
		use("regrid", RegridPortType), use("stats", StatsPortType),
	},
	Provides: []PortDecl{prov("go", cca.GoPortType)},
	Driver:   &DriverMeta{DurationParam: "maxSteps", ProgressKey: "t"},
}

// SetServices implements cca.Component.
func (sd *ShockDriver) SetServices(svc cca.Services) error {
	sd.svc = svc
	return shockDriverSpec.register(svc, goFunc(sd.run))
}

func (sd *ShockDriver) run() error {
	params := sd.svc.Parameters()
	tEnd := shockDriverSpec.Float(params, "tEnd")
	maxSteps := shockDriverSpec.Int(params, "maxSteps")
	regridEvery := shockDriverSpec.Int(params, "regridEvery")
	name := shockDriverSpec.Str(params, "field")

	mesh := shockDriverSpec.port(sd.svc, "mesh").(MeshPort)
	icPort := shockDriverSpec.port(sd.svc, "ic").(ICFieldPort)
	integ := shockDriverSpec.port(sd.svc, "integrator").(ExplicitIntegratorPort)
	chars := shockDriverSpec.port(sd.svc, "characteristics").(CharacteristicsPort)
	bc := shockDriverSpec.port(sd.svc, "bc").(BCPort)
	var regrid RegridPort
	if p := shockDriverSpec.port(sd.svc, "regrid"); p != nil {
		regrid = p.(RegridPort)
	}
	var stats StatsPort
	if p := shockDriverSpec.port(sd.svc, "stats"); p != nil {
		stats = p.(StatsPort)
	}
	var ck CheckpointPort
	if p := shockDriverSpec.port(sd.svc, "checkpoint"); p != nil {
		ck = p.(CheckpointPort)
	}

	// Restore before the fresh check (see RDDriver): adopted fields make
	// the run continue from the checkpointed state instead of the IC.
	var restored *ckpt.Meta
	if ck != nil {
		m, err := ck.Restore(shockDriverName)
		if err != nil {
			return err
		}
		restored = m
	}

	fresh := mesh.Field(name) == nil
	mesh.Declare(name, euler.NumComp, 2)
	if fresh {
		// First Go: impose the IC and build the initial hierarchy.
		// Subsequent Go calls (or a checkpoint restore) continue from
		// the current data.
		icPort.Impose(mesh, name)
		if regrid != nil && regridEvery > 0 {
			for pass := 0; pass < mesh.Hierarchy().MaxLevels-1; pass++ {
				if !regrid.EstimateAndRegrid(mesh, name) {
					break
				}
				icPort.Impose(mesh, name)
			}
		}
	}

	obsSession := sd.svc.Observability()
	tel := sd.svc.Telemetry()
	t := 0.0
	step0 := 0
	if restored != nil {
		t = restored.Time
		step0 = restored.Step + 1
		sd.Steps = step0
		sd.Times = append([]float64(nil), restored.Series["t"]...)
		sd.Circulations = append([]float64(nil), restored.Series["circulation"]...)
		sd.dts = append([]float64(nil), restored.Series["dt"]...)
		// Replay the reinstated history into the statistics port so a
		// resumed run streams the whole Fig 7 curve, not just its tail.
		if stats != nil {
			for i := range sd.Times {
				stats.Record("t", sd.Times[i])
				if i < len(sd.Circulations) {
					stats.Record("circulation", sd.Circulations[i])
				}
				if i < len(sd.dts) {
					stats.Record("dt", sd.dts[i])
				}
			}
		}
	}
	for step := step0; step < maxSteps && t < tEnd; step++ {
		if c := sd.svc.Comm(); c != nil {
			c.NoteStep(step)
		}
		tel.NoteStep(step)
		var stepSpan func()
		if obsSession != nil {
			stepSpan = obsSession.Span("driver", "shock.step "+strconv.Itoa(step))
		}
		// Global stable dt: min over levels, reduced in the port.
		dt := math.Inf(1)
		h := mesh.Hierarchy()
		for l := 0; l < h.NumLevels(); l++ {
			if v := chars.StableDt(mesh, name, l); v < dt {
				dt = v
			}
		}
		if math.IsInf(dt, 0) || dt <= 0 {
			return fmt.Errorf("shock driver: bad dt %v at t=%v", dt, t)
		}
		if t+dt > tEnd {
			dt = tEnd - t
		}
		for l := 0; l < h.NumLevels(); l++ {
			if err := integ.AdvanceLevel(mesh, name, l, t, t+dt); err != nil {
				return err
			}
		}
		d := mesh.Field(name)
		for l := h.NumLevels() - 1; l >= 1; l-- {
			d.RestrictLevel(l)
		}
		t += dt
		sd.Steps++

		gammaC := sd.compositeCirculation(mesh, name, bc)
		sd.Times = append(sd.Times, t)
		sd.Circulations = append(sd.Circulations, gammaC)
		sd.dts = append(sd.dts, dt)
		if stats != nil {
			stats.Record("t", t)
			stats.Record("circulation", gammaC)
			stats.Record("dt", dt)
		}

		if regrid != nil && regridEvery > 0 && (step+1)%regridEvery == 0 {
			if regrid.EstimateAndRegrid(mesh, name) {
				tel.Emit(telemetry.EvRegrid, step, "")
			}
		}
		// Checkpoint after the regrid so a continuation sees the exact
		// hierarchy the next step starts from. The circulation series
		// rides along in Meta.Series (restore reinstates Fig 7's curve).
		if ck != nil {
			meta := ckpt.Meta{Driver: shockDriverName, Step: step, Time: t,
				Series: map[string][]float64{"t": sd.Times, "circulation": sd.Circulations, "dt": sd.dts}}
			if err := ck.SaveIfDue(meta); err != nil {
				return err
			}
		}
		if stepSpan != nil {
			stepSpan()
		}
	}
	sd.FinalTime = t
	if ck != nil {
		if err := ck.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// compositeCirculation evaluates Γ on the composite grid: each level
// contributes only cells not covered by finer patches, and the result
// is summed across the cohort. Patch contributions are computed in
// parallel into per-patch partials and folded in patch order, so the
// floating-point sum is independent of worker count. The uncovered
// boxes are cached per field object (circLevels), so a warm
// call allocates nothing.
func (sd *ShockDriver) compositeCirculation(mesh MeshPort, name string, bc BCPort) float64 {
	d := mesh.Field(name)
	pool := optionalPool(sd.svc)
	var total float64
	for l, cl := range sd.circLevels(d) {
		cl.dx, cl.dy = mesh.Spacing(l)
		// Ghosts must be valid for the vorticity stencil.
		ghostFill{d: d, bc: bc, name: name, level: l}.fill()
		pool.ForEach(len(cl.patches), cl.sumFn)
		for _, p := range cl.partial {
			total += p
		}
	}
	if comm := sd.svc.Comm(); comm != nil && comm.Size() > 1 {
		total = comm.AllreduceScalar(mpi.OpSum, total)
	}
	return total
}

// circulationRegion is euler.Solver.Circulation restricted to a region.
func circulationRegion(pd *field.PatchData, region amr.Box, dx, dy float64) float64 {
	var gamma float64
	vel := func(i, j int) (float64, float64) {
		rho := pd.At(euler.IRho, i, j)
		if rho < 1e-12 {
			rho = 1e-12
		}
		return pd.At(euler.IMx, i, j) / rho, pd.At(euler.IMy, i, j) / rho
	}
	for j := region.Lo[1]; j <= region.Hi[1]; j++ {
		for i := region.Lo[0]; i <= region.Hi[0]; i++ {
			z := pd.At(euler.IZeta, i, j) / math.Max(pd.At(euler.IRho, i, j), 1e-12)
			if z < 0.001 || z > 0.999 {
				continue
			}
			_, vE := vel(i+1, j)
			_, vW := vel(i-1, j)
			uN, _ := vel(i, j+1)
			uS, _ := vel(i, j-1)
			om := (vE-vW)/(2*dx) - (uN-uS)/(2*dy)
			gamma += om * dx * dy
		}
	}
	return gamma
}
