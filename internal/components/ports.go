// Package components implements the paper's CCA components: the
// GrACEComponent mesh/data manager, the chemistry and transport
// wrappers (ThermoChemistry, DRFMComponent), the integrators
// (CvodeComponent, ExplicitIntegrator, ExplicitIntegratorRK2), the
// per-problem adaptors (problemModeler, dPdt, ImplicitIntegrator,
// InviscidFlux), initial and boundary condition components, and the
// drivers that assemble the 0D ignition, 2D reaction–diffusion, and
// 2D shock–interface applications.
//
// Port interfaces are defined here; their type strings follow the
// paper's taxonomy in Sec. 4 (MeshPort and friends).
package components

import (
	"ccahydro/internal/amr"
	"ccahydro/internal/chem"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/cvode"
	"ccahydro/internal/euler"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
)

// Port type strings. Connections require exact matches.
const (
	MeshPortType            = "samr.MeshPort"
	BCPortType              = "samr.BoundaryConditionPort"
	ICFieldPortType         = "samr.InitialConditionPort"
	RegridPortType          = "samr.RegridPort"
	StatsPortType           = "util.StatisticsPort"
	KeyValuePortType        = "db.KeyValuePort"
	RHSPortType             = "ode.RHSPort"
	ImplicitIntegratorType  = "ode.ImplicitIntegratorPort"
	SpectralRadiusPortType  = "ode.SpectralRadiusPort"
	ChemistryPortType       = "chem.SourceTermPort"
	DPDtPortType            = "chem.DPDtPort"
	ICStatePortType         = "chem.InitialStatePort"
	TransportPortType       = "transport.PropertiesPort"
	PatchRHSPortType        = "samr.PatchRHSPort"
	ExplicitIntegratorType  = "samr.ExplicitIntegratorPort"
	CellChemistryPortType   = "samr.CellChemistryPort"
	FluxPortType            = "hydro.FluxPort"
	StatesPortType          = "hydro.StatesPort"
	CharacteristicsPortType = "hydro.CharacteristicsPort"
	ProlongRestrictPortType = "samr.ProlongRestrictPort"
	ExecutionPortType       = "exec.ExecutionPort"
	CheckpointPortType      = "io.CheckpointPort"
)

// MeshPort is the paper's type (a) port: geometric manipulation of the
// domain, declaration of fields, and domain-decomposition queries. The
// GrACEComponent provides it. The Data Object subsystem (paper type
// (b): ghost exchange, coarse–fine fill, restriction, prolongation) is
// reached through Field, as methods of the returned DataObject, not
// through a port of its own.
type MeshPort interface {
	Hierarchy() *amr.Hierarchy
	// Declare creates (or returns the existing) named DataObject with
	// the given shape over the current hierarchy.
	Declare(name string, ncomp, ghost int) *field.DataObject
	// Field returns a declared DataObject, or nil.
	Field(name string) *field.DataObject
	// Regrid rebuilds the hierarchy from flags and remaps every
	// declared field onto it.
	Regrid(flags []*amr.FlagField, opt amr.RegridOptions)
	// Spacing returns the physical mesh spacing on a level.
	Spacing(level int) (dx, dy float64)
}

// BCPort applies physical boundary conditions patch by patch.
type BCPort interface {
	Apply(name string, level int)
}

// ICFieldPort imposes an initial condition on a declared field.
type ICFieldPort interface {
	Impose(mesh MeshPort, name string)
}

// RegridPort estimates errors and triggers hierarchy rebuilds.
type RegridPort interface {
	// EstimateAndRegrid flags high-gradient regions of the named field
	// and regrids; returns true if the hierarchy changed.
	EstimateAndRegrid(mesh MeshPort, name string) bool
}

// StatsPort collects scalar diagnostics (the paper's
// StatisticsComponent). Providers must be safe for concurrent use:
// drivers record from the SCMD loop while monitors and exporters read.
type StatsPort interface {
	// Record appends value to the named series.
	Record(key string, value float64)
	// Get returns a copy of the named series (nil if absent): callers
	// own the slice and may retain or mutate it freely while recording
	// continues.
	Get(key string) []float64
	// Keys returns the recorded series names in sorted order, so
	// iteration over a snapshot is deterministic across runs and ranks.
	Keys() []string
}

// KeyValuePort is the Database subsystem: key-value pairs mapping
// property names to numbers.
type KeyValuePort interface {
	SetValue(key string, v float64)
	Value(key string) (float64, bool)
}

// RHSPort evaluates an ODE right-hand side over a state vector (paper
// type (e): ports that accept vectors).
type RHSPort interface {
	Dim() int
	Eval(t float64, y, ydot []float64)
	// JacFn returns a fresh evaluator filling the row-major Dim x Dim
	// Jacobian df/dy, or nil when no analytic form is available (the
	// integrator then builds it by finite differences, Dim+1 RHS
	// evaluations per build). Each call returns an independent closure
	// with private scratch, so per-worker solvers may evaluate theirs
	// concurrently.
	JacFn() cvode.Jac
}

// ImplicitIntegratorPort advances a vector of variables (the paper's
// Implicit Integration subsystem). The integrator pulls its RHS from
// its connected RHSPort.
type ImplicitIntegratorPort interface {
	// IntegrateTo advances y in place from t0 to t1 and reports solver
	// statistics.
	IntegrateTo(t0, t1 float64, y []float64) (cvode.Stats, error)
	// WorkerIntegrator returns a private integrator for worker slot w of
	// a pool of the given width, so cell integrations can proceed
	// concurrently. Call it serially, before the parallel loop;
	// instances persist across calls with the same width.
	WorkerIntegrator(w, width int) ImplicitIntegratorPort
	// Counters returns the cumulative solver statistics by name — the
	// totals (feeding Table 4) a checkpoint must carry so a restored run
	// reports the same numbers as an uninterrupted one.
	Counters() map[string]float64
	// RestoreCounters reinstates previously checkpointed statistics.
	RestoreCounters(map[string]float64)
}

// SpectralRadiusPort bounds the dominant eigenvalue of a patch operator
// so the explicit integrator can size its stable step (the paper's
// MaxDiffCoeffEvaluator).
type SpectralRadiusPort interface {
	// MaxEigen returns an upper bound on the spectral radius of the
	// explicit operator over the whole hierarchy.
	MaxEigen(mesh MeshPort, name string) float64
}

// ChemistryPort exposes chemical source terms and the mechanism — the
// ThermoChemistry component's main port.
type ChemistryPort interface {
	Mechanism() *chem.Mechanism
	// ConstPressure fills dY and returns dT/dt at fixed pressure.
	ConstPressure(T, P float64, Y, dY []float64) float64
	// ConstVolume fills dY and returns dT/dt at fixed density.
	ConstVolume(T, rho float64, Y, dY []float64) float64
	// Kernel returns the generated kernel backing the source terms.
	// Adaptors use it to build analytic Jacobians consistent with the
	// RHS they wrap.
	Kernel() chem.Kernel
}

// DPDtPort computes the rigid-vessel pressure derivative (the paper's
// dPdt component).
type DPDtPort interface {
	DPDt(rho, T, dTdt float64, Y, dYdt []float64) float64
}

// ICStatePort supplies the 0D initial state (the paper's Initializer).
type ICStatePort interface {
	InitialState() (T, P float64, Y []float64)
}

// TransportPort evaluates transport properties (the DRFMComponent).
type TransportPort interface {
	// Properties fills D (mixture-averaged diffusivities) and returns
	// conductivity and density at (T, P, Y). X is caller scratch.
	Properties(T, P float64, Y, X, D []float64) (lambda, rho float64)
	// MaxDiffusivity returns an upper bound on max(D_i, alpha) at the
	// state, for stability control.
	MaxDiffusivity(T, P float64, Y []float64) float64
}

// PatchRHSPort evaluates a PDE right-hand side one patch region at a
// time (paper type (d): ports that accept an array from a patch).
// Drivers overlap ghost exchange with compute through it: interior
// cells (which never read ghosts) are evaluated while messages are in
// flight, boundary strips after the exchange completes. Providers must
// guarantee that splitting the interior into disjoint regions
// reproduces a whole-interior evaluation bit for bit.
type PatchRHSPort interface {
	// EvalRegion writes dPhi/dt into out over region, a sub-box of pd's
	// interior, reading pd only within region grown by the stencil.
	EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64)
}

// ExplicitIntegratorPort advances a set of Data Objects over a time
// step (paper type (c): ports that accept arrays of Data Objects and
// act on them in a synchronized manner).
type ExplicitIntegratorPort interface {
	// AdvanceLevel advances the named field on a level from t0 to t1.
	AdvanceLevel(mesh MeshPort, name string, level int, t0, t1 float64) error
}

// CellChemistryPort advances the stiff chemistry in every cell of every
// patch of every level (the paper's ImplicitIntegrator adaptor, which
// "calls on the Implicit Integration subsystem for all cells and all
// patches"). Per-cell integrations are independent across levels (dt
// is the same everywhere under operator splitting), so providers may
// advance the whole hierarchy in one pool epoch.
type CellChemistryPort interface {
	AdvanceChemistry(mesh MeshPort, name string, dt float64) (cells int, err error)
	// Counters and RestoreCounters carry the cumulative statistics of
	// the integrator behind the port through a checkpoint (see
	// ImplicitIntegratorPort).
	Counters() map[string]float64
	RestoreCounters(map[string]float64)
}

// FluxPort computes interface fluxes from reconstructed left/right
// states — the seam where GodunovFlux and EFMFlux interchange, crossed
// once per row of faces.
type FluxPort interface {
	// Row sets f[k] to the flux between l[k] and r[k] for every face
	// of the row.
	Row(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved)
}

// StatesPort reconstructs limited left/right states (the paper's
// States component), a row of faces per crossing.
type StatesPort interface {
	// Row fills l and r for faces f = 0..len(l)-1, face f lying
	// between cells c0+f-1 and c0+f along dir (0: i, 1: j, with u and
	// v swapped), where c0 = (i0, j0).
	Row(g euler.Gas, pd *field.PatchData, i0, j0, dir int, l, r []euler.Primitive)
}

// CharacteristicsPort reports characteristic speeds for time-step
// control (the paper's CharacteristicQuantities component).
type CharacteristicsPort interface {
	StableDt(mesh MeshPort, name string, level int) float64
}

// ExecutionPort hands out the worker pool driving patch- and
// cell-parallel loops. Components declare an optional "exec" uses port;
// when it is left unconnected they fall back to the process-wide
// default pool (width GOMAXPROCS), so standard paper assemblies need no
// extra wiring. Connecting an ExecutionComponent with the "workers"
// parameter pins the width — SCMD rank-parallel runs set it to 1 so
// rank goroutines are the only parallelism.
type ExecutionPort interface {
	Pool() *exec.Pool
}

// ProlongRestrictPort performs the cell-centered interpolations between
// levels (the paper's ProlongRestrict component).
type ProlongRestrictPort interface {
	Prolong(mesh MeshPort, name string, level int)
	Restrict(mesh MeshPort, name string, level int)
	FillCoarseFine(mesh MeshPort, name string, level int)
}

// CheckpointPort is the drivers' window into the checkpoint subsystem
// (FLASH's IO unit / Cactus's checkpoint thorn, as a CCA port). Drivers
// declare an optional "checkpoint" uses port; when unconnected, runs
// behave exactly as before.
type CheckpointPort interface {
	// Restore loads the configured checkpoint if one was requested.
	// It returns (nil, nil) when no restore is configured — a cold
	// start. driver names the calling driver; a checkpoint written by a
	// different driver is rejected.
	Restore(driver string) (*ckpt.Meta, error)
	// SaveIfDue writes a checkpoint when the step cadence says so. meta
	// carries the driver's phase (step just completed, simulation time,
	// counters, series); the mesh state is captured from the wired mesh.
	SaveIfDue(meta ckpt.Meta) error
	// Flush blocks until all in-flight checkpoint writes are durable
	// and returns the first write error.
	Flush() error
}
