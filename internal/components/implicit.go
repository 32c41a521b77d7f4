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
// 4.2): for every cell of the named field on every level, it packs the
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

	// cells is the reusable flattened work list (one driver advance at
	// a time drives this port, so reuse is race-free).
	cells []cellRef
}

var implicitIntegratorSpec = &Spec{
	Class: "ImplicitIntegrator", New: func() cca.Component { return &ImplicitIntegrator{} },
	Params: map[string]Param{"P": pressureParam},
	Uses: []PortDecl{
		need("chemistry", ChemistryPortType), execUse, need("integrator", ImplicitIntegratorType),
	},
	// The adaptor also provides the RHS the CvodeComponent consumes:
	// the wiring loops CvodeComponent.rhs -> ImplicitIntegrator.cellRHS.
	Provides: []PortDecl{
		prov("cellChemistry", CellChemistryPortType), prov("cellRHS", RHSPortType),
	},
}

// SetServices implements cca.Component.
func (ii *ImplicitIntegrator) SetServices(svc cca.Services) error {
	ii.svc = svc
	ii.p0 = implicitIntegratorSpec.Float(svc.Parameters(), "P")
	return implicitIntegratorSpec.register(svc, ii, cellRHS{ii})
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

func (ii *ImplicitIntegrator) integrator() ImplicitIntegratorPort {
	return implicitIntegratorSpec.port(ii.svc, "integrator").(ImplicitIntegratorPort)
}

// Counters implements CellChemistryPort by delegating to the wired
// integrator (the CvodeComponent's cumulative statistics).
func (ii *ImplicitIntegrator) Counters() map[string]float64 { return ii.integrator().Counters() }

// RestoreCounters implements CellChemistryPort.
func (ii *ImplicitIntegrator) RestoreCounters(m map[string]float64) {
	ii.integrator().RestoreCounters(m)
}

// cellRHS is the constant-pressure chemistry RHS over y = [T, Y...].
type cellRHS struct{ ii *ImplicitIntegrator }

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

// JacFn implements RHSPort: the generated kernel's exact
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
// column of the field) and dt is level-uniform, so the cells of every
// level are flattened into one list and fan out over the execution
// pool in a single epoch: the list is chunked contiguously, each worker
// slot gets a private integrator (WorkerIntegrator) and scratch
// vector, and cvode.Solver.Init fully resets solver state per cell — so
// the result of every cell is bit-for-bit the serial result regardless
// of width, and fine levels with few cells never serialize the pool.
func (ii *ImplicitIntegrator) AdvanceChemistry(mesh MeshPort, name string, dt float64) (int, error) {
	if o := ii.svc.Observability(); o != nil {
		defer o.Span("chem", "chem.implicit all-levels")()
	}
	d := mesh.Field(name)
	cells := ii.cells[:0]
	for l := 0; l < d.Hierarchy().NumLevels(); l++ {
		cells = appendLevelCells(cells, d, l)
	}
	ii.cells = cells
	integ := ii.integrator()
	mech := ii.chemistry().Mechanism() // also pre-fetches the chemistry port
	nsp := mech.NumSpecies()

	pool := optionalPool(ii.svc)
	width := min(pool.Width(), len(cells))
	ints := make([]ImplicitIntegratorPort, width)
	for w := range ints {
		// Created serially here, used exclusively by slot w below.
		ints[w] = integ.WorkerIntegrator(w, width)
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
	pool.ForEach(len(cells), body)
	if failErr != nil {
		return failIdx, failErr
	}
	return len(cells), nil
}
