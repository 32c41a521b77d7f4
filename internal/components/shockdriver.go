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
// the interfacial-circulation diagnostic of Fig 7. Parameters:
//
//	tEnd         end time in shock-crossing units (default 1.0)
//	maxSteps     hard step cap (default 10000)
//	regridEvery  steps between regrids, 0 = off (default 5)
//	cfl          Courant number passed to dt control (informative)
//	field        conserved field name (default "U")
//
// shockDriverName tags checkpoints written by this driver.
const shockDriverName = "shock"

type ShockDriver struct {
	svc cca.Services

	// Results.
	Times, Circulations []float64
	Steps               int
	FinalTime           float64

	// dts mirrors the per-step dt series so it survives checkpoint
	// round-trips like Times/Circulations do.
	dts []float64
}

// SetServices implements cca.Component.
func (sd *ShockDriver) SetServices(svc cca.Services) error {
	sd.svc = svc
	for _, u := range [][2]string{
		{"mesh", MeshPortType},
		{"ic", ICFieldPortType},
		{"integrator", ExplicitIntegratorType},
		{"characteristics", CharacteristicsPortType},
		{"regrid", RegridPortType},
		{"stats", StatsPortType},
		{"gasProperties", KeyValuePortType},
		{"bc", BCPortType},
		{"checkpoint", CheckpointPortType},
	} {
		if err := svc.RegisterUsesPort(u[0], u[1]); err != nil {
			return err
		}
	}
	if err := registerExecPort(svc); err != nil {
		return err
	}
	return svc.AddProvidesPort(cca.GoPort(goFunc(sd.run)), "go", cca.GoPortType)
}

func (sd *ShockDriver) port(name string) cca.Port {
	p, err := sd.svc.GetPort(name)
	if err != nil {
		panic(fmt.Sprintf("ShockDriver: %v", err))
	}
	sd.svc.ReleasePort(name)
	return p
}

func (sd *ShockDriver) optionalPort(name string) cca.Port {
	p, err := sd.svc.GetPort(name)
	if err != nil {
		return nil
	}
	sd.svc.ReleasePort(name)
	return p
}

func (sd *ShockDriver) run() error {
	params := sd.svc.Parameters()
	tEnd := params.GetFloat("tEnd", 1.0)
	maxSteps := params.GetInt("maxSteps", 10000)
	regridEvery := params.GetInt("regridEvery", 5)
	name := params.GetString("field", "U")

	mesh := sd.port("mesh").(MeshPort)
	icPort := sd.port("ic").(ICFieldPort)
	integ := sd.port("integrator").(ExplicitIntegratorPort)
	chars := sd.port("characteristics").(CharacteristicsPort)
	bc := sd.port("bc").(BCPort)
	db := sd.port("gasProperties").(KeyValuePort)
	var regrid RegridPort
	if p := sd.optionalPort("regrid"); p != nil {
		regrid = p.(RegridPort)
	}
	var stats StatsPort
	if p := sd.optionalPort("stats"); p != nil {
		stats = p.(StatsPort)
	}
	var ck CheckpointPort
	if p := sd.optionalPort("checkpoint"); p != nil {
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

	gamma, ok := db.Value("gamma")
	if !ok {
		gamma = euler.AirGamma
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

		gammaC := sd.compositeCirculation(mesh, name, gamma, bc)
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
// floating-point sum is independent of worker count.
func (sd *ShockDriver) compositeCirculation(mesh MeshPort, name string, gamma float64, bc BCPort) float64 {
	d := mesh.Field(name)
	h := d.Hierarchy()
	s := &euler.Solver{Gas: euler.Gas{Gamma: gamma}}
	pool := optionalPool(sd.svc)
	var total float64
	for l := 0; l < h.NumLevels(); l++ {
		dx, dy := mesh.Spacing(l)
		// Ghosts must be valid for the vorticity stencil (collective:
		// stays on the calling goroutine).
		if l > 0 {
			d.FillCoarseFineGhosts(l, field.ProlongLinear)
		}
		d.ExchangeGhosts(l)
		bc.Apply(name, l)
		var finer []amr.Box
		if l+1 < h.NumLevels() {
			for _, fp := range h.Level(l + 1).Patches {
				finer = append(finer, fp.Box.Coarsen(h.Ratio))
			}
		}
		patches := d.LocalPatches(l)
		partial := make([]float64, len(patches))
		pool.ForEach(len(patches), func(_, n int) {
			pd := patches[n]
			// Uncovered parts of this patch.
			parts := []amr.Box{pd.Interior()}
			for _, fb := range finer {
				var next []amr.Box
				for _, p := range parts {
					next = append(next, p.Subtract(fb)...)
				}
				parts = next
			}
			var sum float64
			for _, region := range parts {
				sum += circulationRegion(s, pd, region, dx, dy)
			}
			partial[n] = sum
		})
		for _, p := range partial {
			total += p
		}
	}
	if comm := sd.svc.Comm(); comm != nil && comm.Size() > 1 {
		total = comm.AllreduceScalar(mpi.OpSum, total)
	}
	return total
}

// circulationRegion is euler.Solver.Circulation restricted to a region.
func circulationRegion(s *euler.Solver, pd *field.PatchData, region amr.Box, dx, dy float64) float64 {
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
