package components

import (
	"strconv"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/field"
	"ccahydro/internal/telemetry"
)

// rdDriverName tags checkpoints written by this driver; a restore into
// a different driver is rejected.
const rdDriverName = "rd"

// RDDriver assembles the operator-split time loop of the 2D
// reaction–diffusion flame (paper Sec. 4.2): stiff chemistry integrated
// implicitly cell by cell, diffusion integrated explicitly with RKC,
// with optional SAMR regridding between steps.
type RDDriver struct {
	svc cca.Services

	// Results, readable after Go.
	StepSeconds  []float64
	CellsPerStep []int
	TMax, TMin   float64
}

var rdDriverSpec = &Spec{
	Class: "RDDriver", New: func() cca.Component { return &RDDriver{} },
	Params: map[string]Param{
		"dt":          fparam("1e-7", 1e-15, 1e3), // macro step, s: the paper's scaling-run step
		"steps":       iparam("5", 1, 1<<20),      // macro steps, as in the paper
		"regridEvery": iparam("0", 0, 1<<20),      // regrid period; 0 = no adaptivity, as in the scaling runs
		// lie: chemistry then diffusion; strang: half chemistry,
		// diffusion, half chemistry.
		"splitting": eparam("lie", "lie", "strang"),
		"field":     sparam("phi"), // data object name
	},
	Uses: []PortDecl{
		use("cellChemistry", CellChemistryPortType), use("checkpoint", CheckpointPortType),
		need("chemistry", ChemistryPortType), execUse,
		need("explicit", ExplicitIntegratorType), need("ic", ICFieldPortType),
		need("mesh", MeshPortType), use("regrid", RegridPortType), use("stats", StatsPortType),
	},
	Provides: []PortDecl{prov("go", cca.GoPortType)},
	Driver:   &DriverMeta{DurationParam: "steps", ProgressKey: "cells"},
}

// SetServices implements cca.Component.
func (dr *RDDriver) SetServices(svc cca.Services) error {
	dr.svc = svc
	return rdDriverSpec.register(svc, goFunc(dr.run))
}

func (dr *RDDriver) run() error {
	params := dr.svc.Parameters()
	dt := rdDriverSpec.Float(params, "dt")
	steps := rdDriverSpec.Int(params, "steps")
	regridEvery := rdDriverSpec.Int(params, "regridEvery")
	splitting := rdDriverSpec.Str(params, "splitting")
	name := rdDriverSpec.Str(params, "field")

	mesh := rdDriverSpec.port(dr.svc, "mesh").(MeshPort)
	icPort := rdDriverSpec.port(dr.svc, "ic").(ICFieldPort)
	expl := rdDriverSpec.port(dr.svc, "explicit").(ExplicitIntegratorPort)
	chemPort := rdDriverSpec.port(dr.svc, "chemistry").(ChemistryPort)
	var cellChem CellChemistryPort
	if p := rdDriverSpec.port(dr.svc, "cellChemistry"); p != nil {
		cellChem = p.(CellChemistryPort)
	}
	var regrid RegridPort
	if p := rdDriverSpec.port(dr.svc, "regrid"); p != nil {
		regrid = p.(RegridPort)
	}
	var stats StatsPort
	if p := rdDriverSpec.port(dr.svc, "stats"); p != nil {
		stats = p.(StatsPort)
	}
	var ck CheckpointPort
	if p := rdDriverSpec.port(dr.svc, "checkpoint"); p != nil {
		ck = p.(CheckpointPort)
	}

	// Restore (if configured) before the fresh check: a restore adopts
	// the checkpointed hierarchy and fields into the mesh, so the IC and
	// initial regrid passes below are skipped and the loop resumes at the
	// checkpointed step.
	var restored *ckpt.Meta
	if ck != nil {
		m, err := ck.Restore(rdDriverName)
		if err != nil {
			return err
		}
		restored = m
	}

	nsp := chemPort.Mechanism().NumSpecies()
	fresh := mesh.Field(name) == nil
	mesh.Declare(name, 1+nsp, 2)
	if fresh {
		// First Go on this framework: impose the IC and establish the
		// initial hierarchy (alternate flagging and re-imposing so fine
		// levels start from exact data). Subsequent Go calls continue
		// the run from the current field, so a driver can be fired
		// repeatedly to produce time-series frames (Fig 3).
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

	chemStep := func(frac float64) error {
		if cellChem == nil {
			return nil
		}
		_, err := cellChem.AdvanceChemistry(mesh, name, dt*frac)
		return err
	}
	diffStep := func(t0, t1 float64) error {
		h := mesh.Hierarchy()
		for l := 0; l < h.NumLevels(); l++ {
			if err := expl.AdvanceLevel(mesh, name, l, t0, t1); err != nil {
				return err
			}
		}
		// Make coarse data consistent with fine (restriction).
		d := mesh.Field(name)
		for l := h.NumLevels() - 1; l >= 1; l-- {
			d.RestrictLevel(l)
		}
		return nil
	}

	obsSession := dr.svc.Observability()
	tel := dr.svc.Telemetry()
	t := 0.0
	step0 := 0
	if restored != nil {
		t = restored.Time
		step0 = restored.Step + 1
		if cellChem != nil && restored.Counters != nil {
			cellChem.RestoreCounters(restored.Counters)
		}
		// Reinstate the per-step history (it rides in Meta.Series), and
		// replay it into the statistics port so a resumed run's series —
		// including the live /series stream — covers the whole job, not
		// just the steps after the restore point.
		dr.StepSeconds = append([]float64(nil), restored.Series["stepSeconds"]...)
		dr.CellsPerStep = dr.CellsPerStep[:0]
		for _, v := range restored.Series["cells"] {
			dr.CellsPerStep = append(dr.CellsPerStep, int(v))
		}
		if stats != nil {
			for i := range dr.StepSeconds {
				stats.Record("stepSeconds", dr.StepSeconds[i])
				if i < len(dr.CellsPerStep) {
					stats.Record("cells", float64(dr.CellsPerStep[i]))
				}
			}
		}
	}
	for step := step0; step < steps; step++ {
		if c := dr.svc.Comm(); c != nil {
			c.NoteStep(step)
		}
		tel.NoteStep(step)
		var stepSpan func()
		if obsSession != nil {
			stepSpan = obsSession.Span("driver", "rd.step "+strconv.Itoa(step))
		}
		start := time.Now()
		switch splitting {
		case "strang":
			if err := chemStep(0.5); err != nil {
				return err
			}
			if err := diffStep(t, t+dt); err != nil {
				return err
			}
			if err := chemStep(0.5); err != nil {
				return err
			}
		default: // lie
			if err := chemStep(1.0); err != nil {
				return err
			}
			if err := diffStep(t, t+dt); err != nil {
				return err
			}
		}
		t += dt
		elapsed := time.Since(start).Seconds()
		dr.StepSeconds = append(dr.StepSeconds, elapsed)
		dr.CellsPerStep = append(dr.CellsPerStep, mesh.Hierarchy().TotalCells())
		if stats != nil {
			stats.Record("stepSeconds", elapsed)
			stats.Record("cells", float64(mesh.Hierarchy().TotalCells()))
		}
		if regrid != nil && regridEvery > 0 && (step+1)%regridEvery == 0 {
			if regrid.EstimateAndRegrid(mesh, name) {
				tel.Emit(telemetry.EvRegrid, step, "")
			}
		}
		// Checkpoint last, after the regrid: a continuation computes step
		// step+1 from exactly the state this iteration hands it. The
		// per-step series ride along so a restore reinstates them.
		if ck != nil {
			cells := make([]float64, len(dr.CellsPerStep))
			for i, c := range dr.CellsPerStep {
				cells[i] = float64(c)
			}
			meta := ckpt.Meta{Driver: rdDriverName, Step: step, Time: t,
				Series: map[string][]float64{"stepSeconds": dr.StepSeconds, "cells": cells}}
			if cellChem != nil {
				meta.Counters = cellChem.Counters()
			}
			if err := ck.SaveIfDue(meta); err != nil {
				return err
			}
		}
		if stepSpan != nil {
			stepSpan()
		}
	}
	if ck != nil {
		if err := ck.Flush(); err != nil {
			return err
		}
	}

	// Final temperature extrema (rank-local; experiments reduce them).
	// Patch scans fan out over the pool; min/max folds are
	// order-independent, so the result matches the serial scan exactly.
	d := mesh.Field(name)
	dr.TMax, dr.TMin = -1e300, 1e300
	h := mesh.Hierarchy()
	var scan []*field.PatchData
	for l := 0; l < h.NumLevels(); l++ {
		scan = append(scan, d.LocalPatches(l)...)
	}
	his := make([]float64, len(scan))
	los := make([]float64, len(scan))
	optionalPool(dr.svc).ForEach(len(scan), func(_, n int) {
		pd := scan[n]
		b := pd.Interior()
		hi, lo := -1e300, 1e300
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				v := pd.At(0, i, j)
				if v > hi {
					hi = v
				}
				if v < lo {
					lo = v
				}
			}
		}
		his[n], los[n] = hi, lo
	})
	for n := range scan {
		if his[n] > dr.TMax {
			dr.TMax = his[n]
		}
		if los[n] < dr.TMin {
			dr.TMin = los[n]
		}
	}
	if stats != nil {
		stats.Record("Tmax", dr.TMax)
		stats.Record("Tmin", dr.TMin)
	}
	return nil
}
