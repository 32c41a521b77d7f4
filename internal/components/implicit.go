package components

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"
	"ccahydro/internal/field"
)

// ImplicitIntegrator is the adaptor that "calls on the Implicit
// Integration subsystem for all cells and all patches" (paper Sec.
// 4.2): for every cell of the named field on a level, it packs the
// cell state [T, Y...] into a vector, advances it through the
// connected implicit integrator (CvodeComponent) against the
// constant-pressure chemistry RHS, and writes the result back.
// Parameter "P" is the open-domain pressure (default 1 atm).
type ImplicitIntegrator struct {
	svc cca.Services
	p0  float64
	// chem is guarded by chemOnce: cellRHS.Eval runs on pool
	// goroutines inside the per-worker solvers.
	chem     ChemistryPort
	chemOnce sync.Once

	// rhs context for the current cell integration.
	nsp int

	// cells is the reusable flattened work list (one driver advance at
	// a time drives this port, so reuse is race-free).
	cells []cellRef
}

// SetServices implements cca.Component.
func (ii *ImplicitIntegrator) SetServices(svc cca.Services) error {
	ii.svc = svc
	ii.p0 = svc.Parameters().GetFloat("P", chem.PAtm)
	if err := svc.RegisterUsesPort("integrator", ImplicitIntegratorType); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort("chemistry", ChemistryPortType); err != nil {
		return err
	}
	if err := registerExecPort(svc); err != nil {
		return err
	}
	// The adaptor also provides the RHS the CvodeComponent consumes:
	// the wiring loops CvodeComponent.rhs -> ImplicitIntegrator.cellRHS.
	if err := svc.AddProvidesPort(cellRHS{ii}, "cellRHS", RHSPortType); err != nil {
		return err
	}
	return svc.AddProvidesPort(ii, "cellChemistry", CellChemistryPortType)
}

func (ii *ImplicitIntegrator) chemistry() ChemistryPort {
	ii.chemOnce.Do(func() {
		p, err := ii.svc.GetPort("chemistry")
		if err != nil {
			panic(err)
		}
		ii.chem = p.(ChemistryPort)
	})
	return ii.chem
}

// counterSource resolves the wired integrator's CounterSource
// capability, or nil when the provider has none.
func (ii *ImplicitIntegrator) counterSource() CounterSource {
	p, err := ii.svc.GetPort("integrator")
	if err != nil {
		return nil
	}
	ii.svc.ReleasePort("integrator")
	cs, _ := p.(CounterSource)
	return cs
}

// Counters implements CounterSource by delegating to the wired
// integrator (the CvodeComponent's cumulative statistics).
func (ii *ImplicitIntegrator) Counters() map[string]float64 {
	if cs := ii.counterSource(); cs != nil {
		return cs.Counters()
	}
	return nil
}

// RestoreCounters implements CounterSource.
func (ii *ImplicitIntegrator) RestoreCounters(m map[string]float64) {
	if cs := ii.counterSource(); cs != nil {
		cs.RestoreCounters(m)
	}
}

// cellRHS is the constant-pressure chemistry RHS over y = [T, Y...].
type cellRHS struct{ ii *ImplicitIntegrator }

// Dim implements RHSPort.
func (cr cellRHS) Dim() int {
	return cr.ii.chemistry().Mechanism().NumSpecies() + 1
}

// Eval implements RHSPort.
func (cr cellRHS) Eval(_ float64, y, ydot []float64) {
	chemPort := cr.ii.chemistry()
	n := chemPort.Mechanism().NumSpecies()
	T := y[0]
	if T < 200 {
		T = 200
	}
	ydot[0] = chemPort.ConstPressure(T, cr.ii.p0, y[1:1+n], ydot[1:1+n])
}

// JacFn implements JacobianRHSPort: the generated kernel's exact
// constant-pressure Jacobian at the adaptor's fixed pressure. The kernel
// call is stateless, so the same closure shape is handed to every
// per-worker solver.
func (cr cellRHS) JacFn() cvode.Jac {
	k := cr.ii.chemistry().Kernel()
	p0 := cr.ii.p0
	return func(_ float64, y, jac []float64) {
		T := y[0]
		if T < 200 {
			T = 200 // mirror Eval's guard
		}
		k.ConstPressureJacobian(T, p0, y[1:], jac)
	}
}

// cellRef addresses one cell of one patch in the flattened cell list a
// chemistry advance fans out over; level rides along for error reports.
type cellRef struct {
	pd    *field.PatchData
	i, j  int
	level int
}

// appendLevelCells appends every owned interior cell of a level to the
// flattened work list.
func appendLevelCells(cells []cellRef, d *field.DataObject, level int) []cellRef {
	for _, pd := range d.LocalPatches(level) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				cells = append(cells, cellRef{pd, i, j, level})
			}
		}
	}
	return cells
}

// AdvanceChemistry implements CellChemistryPort. The stiff integrations
// are independent across cells (each reads and writes only its own
// column of the field), so they fan out over the execution pool: the
// flattened cell list is chunked contiguously, each worker slot gets a
// private integrator (WorkerIntegratorPort) and scratch vector, and
// cvode.Solver.Init fully resets solver state per cell — so the result
// of every cell is bit-for-bit the serial result regardless of width.
func (ii *ImplicitIntegrator) AdvanceChemistry(mesh MeshPort, name string, level int, dt float64) (int, error) {
	if o := ii.svc.Observability(); o != nil {
		defer o.Span("chem", obsLevelName("chem.implicit", level))()
	}
	d := mesh.Field(name)
	ii.cells = appendLevelCells(ii.cells[:0], d, level)
	return ii.advanceCells(dt)
}

// AdvanceChemistryLevels implements MultiLevelChemistryPort: the cells
// of every level are flattened into one list and advanced in a single
// pool epoch. Per-cell results are independent of which loop delivered
// the cell (the solver is fully re-initialized per cell), so this is
// bit-for-bit the per-level sequence minus NumLevels-1 fork/join
// barriers — fine levels with few cells no longer serialize the pool.
func (ii *ImplicitIntegrator) AdvanceChemistryLevels(mesh MeshPort, name string, dt float64) (int, error) {
	if o := ii.svc.Observability(); o != nil {
		defer o.Span("chem", "chem.implicit all-levels")()
	}
	d := mesh.Field(name)
	ii.cells = ii.cells[:0]
	for l := 0; l < d.Hierarchy().NumLevels(); l++ {
		ii.cells = appendLevelCells(ii.cells, d, l)
	}
	return ii.advanceCells(dt)
}

// advanceCells integrates every cell of ii.cells by dt over the pool.
func (ii *ImplicitIntegrator) advanceCells(dt float64) (int, error) {
	cells := ii.cells
	ip, err := ii.svc.GetPort("integrator")
	if err != nil {
		return 0, err
	}
	ii.svc.ReleasePort("integrator")
	integ := ip.(ImplicitIntegratorPort)
	mech := ii.chemistry().Mechanism() // also pre-fetches the chemistry port
	nsp := mech.NumSpecies()
	ii.nsp = nsp

	pool := optionalPool(ii.svc)
	width := pool.Width()
	wip, canFanOut := integ.(WorkerIntegratorPort)
	if width > len(cells) {
		width = len(cells)
	}
	ints := make([]ImplicitIntegratorPort, width)
	for w := range ints {
		if canFanOut && width > 1 {
			// Created serially here, used exclusively by slot w below.
			ints[w] = wip.WorkerIntegrator(w, width)
		} else {
			ints[w] = integ
		}
	}
	if !canFanOut {
		pool = nil // provider cannot hand out private integrators: stay serial
	}

	ys := make([][]float64, len(ints))
	var failed int32
	var failMu sync.Mutex
	failIdx, failErr := -1, error(nil)
	body := func(w, idx int) {
		if atomic.LoadInt32(&failed) != 0 {
			return
		}
		c := cells[idx]
		y := ys[w]
		if y == nil {
			y = make([]float64, nsp+1)
			ys[w] = y
		}
		y[0] = c.pd.At(0, c.i, c.j)
		for k := 0; k < nsp; k++ {
			y[1+k] = c.pd.At(1+k, c.i, c.j)
		}
		chem.NormalizeY(y[1 : 1+nsp])
		if _, err := ints[w].IntegrateTo(0, dt, y); err != nil {
			atomic.StoreInt32(&failed, 1)
			failMu.Lock()
			if failIdx < 0 || idx < failIdx {
				failIdx = idx
				failErr = fmt.Errorf("cell (%d,%d) level %d: %w", c.i, c.j, c.level, err)
			}
			failMu.Unlock()
			return
		}
		c.pd.Set(0, c.i, c.j, y[0])
		for k := 0; k < nsp; k++ {
			c.pd.Set(1+k, c.i, c.j, y[1+k])
		}
	}
	if pool == nil {
		for idx := range cells {
			body(0, idx)
		}
	} else {
		pool.ForEach(len(cells), body)
	}
	if failErr != nil {
		return failIdx, failErr
	}
	return len(cells), nil
}
