package scenario

import (
	"sort"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
)

// This file is the static truth the validator checks scenarios against:
// for every registered component class, its parameters (with types,
// defaults, and legal ranges), its uses and provides ports (with the
// exact port-type strings connections must match), and — for driver
// classes — the metadata the run server needs for dedup keying
// (duration knob, progress series, checkpointability). Nothing here is
// consulted at run time; it exists so a scenario is rejected with a
// position before a single component is instantiated. The schema is
// pinned against reality by TestSchemaConformance, which instantiates
// every class and compares these port lists with the ones the
// components actually register.

// ParamKind is the value domain of a component parameter.
type ParamKind int

const (
	KindString ParamKind = iota
	KindInt
	KindFloat
	KindBool
	KindEnum
)

func (k ParamKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindEnum:
		return "enum"
	}
	return "string"
}

// ParamSchema describes one parameter: kind, default (as the component
// reads it), and either an inclusive [Min, Max] range (int/float) or
// the enumeration of legal values.
type ParamSchema struct {
	Kind     ParamKind
	Default  string
	Min, Max float64
	Enum     []string
}

// PortSchema describes one port: its name, its type string (connections
// require an exact match), and — for uses ports — whether the component
// panics without it (Required) or degrades gracefully.
type PortSchema struct {
	Name     string
	Type     string
	Required bool
}

// DriverSchema is the run-server metadata of a class that provides a go
// port: the run-length knob excluded from the dedup prefix key, the
// statistics series whose length counts completed steps, and whether
// the assembly supports checkpoint/restart (and therefore preemption
// and warm starts).
type DriverSchema struct {
	DurationParam  string
	ProgressKey    string
	Checkpointable bool
}

// ClassSchema is everything the validator knows about one class.
type ClassSchema struct {
	Params   map[string]*ParamSchema
	Uses     []PortSchema
	Provides []PortSchema
	Driver   *DriverSchema
}

// HasGo reports whether the class provides a go port (is a run target).
func (c *ClassSchema) HasGo() bool {
	for _, p := range c.Provides {
		if p.Type == cca.GoPortType {
			return true
		}
	}
	return false
}

func (c *ClassSchema) uses(name string) *PortSchema {
	for i := range c.Uses {
		if c.Uses[i].Name == name {
			return &c.Uses[i]
		}
	}
	return nil
}

func (c *ClassSchema) provides(name string) *PortSchema {
	for i := range c.Provides {
		if c.Provides[i].Name == name {
			return &c.Provides[i]
		}
	}
	return nil
}

// ClassInfo returns the schema for a class name.
func ClassInfo(name string) (*ClassSchema, bool) {
	c, ok := classes[name]
	return c, ok
}

// Classes returns the known class names, sorted.
func Classes() []string {
	out := make([]string, 0, len(classes))
	for name := range classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultParam returns a class parameter's default value.
func DefaultParam(class, key string) (string, bool) {
	c, ok := classes[class]
	if !ok {
		return "", false
	}
	p, ok := c.Params[key]
	if !ok {
		return "", false
	}
	return p.Default, true
}

func pInt(def string, min, max float64) *ParamSchema {
	return &ParamSchema{Kind: KindInt, Default: def, Min: min, Max: max}
}

func pFloat(def string, min, max float64) *ParamSchema {
	return &ParamSchema{Kind: KindFloat, Default: def, Min: min, Max: max}
}

func pBool(def string) *ParamSchema { return &ParamSchema{Kind: KindBool, Default: def} }

func pStr(def string) *ParamSchema { return &ParamSchema{Kind: KindString, Default: def} }

func pEnum(def string, vals ...string) *ParamSchema {
	sort.Strings(vals)
	return &ParamSchema{Kind: KindEnum, Default: def, Enum: vals}
}

func use(name, typ string) PortSchema { return PortSchema{Name: name, Type: typ} }

func need(name, typ string) PortSchema { return PortSchema{Name: name, Type: typ, Required: true} }

func prov(name, typ string) PortSchema { return PortSchema{Name: name, Type: typ} }

// mechEnum lists the chemistry mechanisms chem.ByName resolves, under
// both their short and fully qualified names.
func mechEnum(def string) *ParamSchema {
	return pEnum(def,
		"h2air", "h2air-9sp-19rx",
		"h2air-lite", "h2air-lite-8sp-5rx",
		"co-h2-air", "co-h2-air-12sp-28rx")
}

var classes = map[string]*ClassSchema{
	// Mesh, data, and execution substrate.
	"GrACEComponent": {
		Params: map[string]*ParamSchema{
			"nx":            pInt("100", 4, 4096),
			"ny":            pInt("100", 4, 4096),
			"lx":            pFloat("0.01", 1e-12, 1e12),
			"ly":            pFloat("0.01", 1e-12, 1e12),
			"ratio":         pInt("2", 2, 4),
			"maxLevels":     pInt("3", 1, 8),
			"maxPatchCells": pInt("4096", 16, 1<<20),
		},
		Uses: []PortSchema{use("balancer", components.BalancerPortType)},
		Provides: []PortSchema{
			prov("bc", components.BCPortType),
			prov("data", components.DataPortType),
			prov("mesh", components.MeshPortType),
		},
	},
	"BalancerComponent": {
		Params:   map[string]*ParamSchema{"policy": pEnum("greedy", "greedy", "sfc")},
		Provides: []PortSchema{prov("balancer", components.BalancerPortType)},
	},
	"ExecutionComponent": {
		Params:   map[string]*ParamSchema{"workers": pInt("0", 0, 1024)},
		Provides: []PortSchema{prov("exec", components.ExecutionPortType)},
	},
	"CheckpointComponent": {
		Params: map[string]*ParamSchema{
			"every":       pInt("0", 0, 1<<20),
			"dir":         pStr("checkpoints"),
			"restore":     pStr(""),
			"incremental": pBool("false"),
			"fullEvery":   pInt("8", 1, 1<<20),
			"compress":    pBool("false"),
			"keep":        pInt("0", 0, 1<<20),
			"keepEvery":   pInt("0", 0, 1<<20),
		},
		Uses: []PortSchema{
			use("exec", components.ExecutionPortType),
			need("mesh", components.MeshPortType),
		},
		Provides: []PortSchema{prov("checkpoint", components.CheckpointPortType)},
	},

	// Chemistry and transport.
	"ThermoChemistry": {
		Params: map[string]*ParamSchema{"mech": mechEnum("h2air")},
		Provides: []PortSchema{
			prov("chemistry", components.ChemistryPortType),
			prov("properties", components.KeyValuePortType),
		},
	},
	"DRFMComponent": {
		Params:   map[string]*ParamSchema{"mech": mechEnum("h2air")},
		Provides: []PortSchema{prov("transport", components.TransportPortType)},
	},
	"DPDt": {
		Uses:     []PortSchema{need("chemistry", components.ChemistryPortType)},
		Provides: []PortSchema{prov("dpdt", components.DPDtPortType)},
	},
	"ProblemModeler": {
		Uses: []PortSchema{
			need("chemistry", components.ChemistryPortType),
			need("dpdt", components.DPDtPortType),
		},
		Provides: []PortSchema{prov("rhs", components.RHSPortType)},
	},
	"Initializer": {
		Params: map[string]*ParamSchema{
			"T0": pFloat("1000", 200, 5000),
			"P0": pFloat("101325", 1, 1e9),
		},
		Uses:     []PortSchema{need("chemistry", components.ChemistryPortType)},
		Provides: []PortSchema{prov("ic", components.ICStatePortType)},
	},

	// Integrators and solvers.
	"CvodeComponent": {
		Params: map[string]*ParamSchema{
			"rtol": pFloat("1e-8", 0, 1),
			"atol": pFloat("1e-12", 0, 1),
		},
		Uses:     []PortSchema{need("rhs", components.RHSPortType)},
		Provides: []PortSchema{prov("integrator", components.ImplicitIntegratorType)},
	},
	"ExplicitIntegrator": {
		Params: map[string]*ParamSchema{
			"rtol": pFloat("1e-5", 0, 1),
			"atol": pFloat("1e-8", 0, 1),
		},
		Uses: []PortSchema{
			use("exec", components.ExecutionPortType),
			need("maxEigen", components.SpectralRadiusPortType),
			need("patchRHS", components.PatchRHSPortType),
		},
		Provides: []PortSchema{prov("integrator", components.ExplicitIntegratorType)},
	},
	"ExplicitIntegratorRK2": {
		Uses: []PortSchema{
			need("bc", components.BCPortType),
			use("exec", components.ExecutionPortType),
			need("patchRHS", components.PatchRHSPortType),
		},
		Provides: []PortSchema{prov("integrator", components.ExplicitIntegratorType)},
	},
	"ImplicitIntegrator": {
		Params: map[string]*ParamSchema{"P": pFloat("101325", 1, 1e9)},
		Uses: []PortSchema{
			need("chemistry", components.ChemistryPortType),
			use("exec", components.ExecutionPortType),
			need("integrator", components.ImplicitIntegratorType),
		},
		Provides: []PortSchema{
			prov("cellChemistry", components.CellChemistryPortType),
			prov("cellRHS", components.RHSPortType),
		},
	},

	// Reaction–diffusion physics.
	"DiffusionPhysics": {
		Params: map[string]*ParamSchema{"P": pFloat("101325", 1, 1e9)},
		Uses: []PortSchema{
			need("chemistry", components.ChemistryPortType),
			need("transport", components.TransportPortType),
		},
		Provides: []PortSchema{prov("patchRHS", components.PatchRHSPortType)},
	},
	"MaxDiffCoeffEvaluator": {
		Params: map[string]*ParamSchema{"P": pFloat("101325", 1, 1e9)},
		Uses: []PortSchema{
			need("chemistry", components.ChemistryPortType),
			use("exec", components.ExecutionPortType),
			need("transport", components.TransportPortType),
		},
		Provides: []PortSchema{prov("maxEigen", components.SpectralRadiusPortType)},
	},
	"InitialCondition": {
		Params: map[string]*ParamSchema{
			"Tcold":  pFloat("300", 100, 5000),
			"Thot":   pFloat("1800", 100, 5000),
			"radius": pFloat("0.06", 1e-9, 1e3),
			"nspots": pInt("3", 1, 4),
		},
		Uses:     []PortSchema{need("chemistry", components.ChemistryPortType)},
		Provides: []PortSchema{prov("ic", components.ICFieldPortType)},
	},
	"ErrorEstAndRegrid": {
		Params: map[string]*ParamSchema{
			"threshold": pFloat("0.08", 0, 1e6),
			"comp":      pInt("0", 0, 64),
			"buffer":    pInt("2", 0, 64),
		},
		Provides: []PortSchema{prov("regrid", components.RegridPortType)},
	},

	// Hydrodynamics.
	"GasProperties": {
		Params: map[string]*ParamSchema{
			"gamma":        pFloat("1.4", 1.0001, 3),
			"densityRatio": pFloat("3.0", 1e-3, 1e3),
			"mach":         pFloat("1.5", 1, 50),
		},
		Provides: []PortSchema{prov("properties", components.KeyValuePortType)},
	},
	"States": {
		Params:   map[string]*ParamSchema{"limiter": pEnum("mc", "mc", "minmod", "first")},
		Provides: []PortSchema{prov("states", components.StatesPortType)},
	},
	"GodunovFlux": {Provides: []PortSchema{prov("flux", components.FluxPortType)}},
	"EFMFlux":     {Provides: []PortSchema{prov("flux", components.FluxPortType)}},
	"HLLCFlux":    {Provides: []PortSchema{prov("flux", components.FluxPortType)}},
	"InviscidFlux": {
		Uses: []PortSchema{
			use("exec", components.ExecutionPortType),
			need("flux", components.FluxPortType),
			need("gasProperties", components.KeyValuePortType),
			need("states", components.StatesPortType),
		},
		Provides: []PortSchema{prov("patchRHS", components.PatchRHSPortType)},
	},
	"CharacteristicQuantities": {
		Params: map[string]*ParamSchema{"cfl": pFloat("0.45", 1e-3, 1)},
		Uses: []PortSchema{
			use("exec", components.ExecutionPortType),
			need("gasProperties", components.KeyValuePortType),
		},
		Provides: []PortSchema{prov("characteristics", components.CharacteristicsPortType)},
	},
	"BoundaryConditions": {
		Params: map[string]*ParamSchema{
			"xlo": pEnum("outflow", "outflow", "reflect"),
			"xhi": pEnum("outflow", "outflow", "reflect"),
			"ylo": pEnum("reflect", "outflow", "reflect"),
			"yhi": pEnum("reflect", "outflow", "reflect"),
		},
		Uses:     []PortSchema{need("mesh", components.MeshPortType)},
		Provides: []PortSchema{prov("bc", components.BCPortType)},
	},
	"ProlongRestrict": {
		Provides: []PortSchema{prov("prolongRestrict", components.ProlongRestrictPortType)},
	},
	"ConicalInterfaceIC": {
		Params: map[string]*ParamSchema{
			"interfaceX": pFloat("0.40", 0, 1),
			"angleDeg":   pFloat("30", -85, 85),
			"shockX":     pFloat("0.20", 0, 1),
		},
		Uses:     []PortSchema{need("gasProperties", components.KeyValuePortType)},
		Provides: []PortSchema{prov("ic", components.ICFieldPortType)},
	},
	"KelvinHelmholtzIC": {
		Params: map[string]*ParamSchema{
			"shearU":     pFloat("0.5", 0, 50),
			"thickness":  pFloat("0.05", 1e-4, 0.25),
			"perturbAmp": pFloat("0.01", 0, 1),
			"modes":      pInt("2", 1, 64),
		},
		Uses:     []PortSchema{need("gasProperties", components.KeyValuePortType)},
		Provides: []PortSchema{prov("ic", components.ICFieldPortType)},
	},
	"RichtmyerMeshkovIC": {
		Params: map[string]*ParamSchema{
			"interfaceX": pFloat("0.55", 0, 1),
			"amplitude":  pFloat("0.05", 0, 0.25),
			"modes":      pInt("3", 1, 64),
			"shockX":     pFloat("0.25", 0, 1),
		},
		Uses:     []PortSchema{need("gasProperties", components.KeyValuePortType)},
		Provides: []PortSchema{prov("ic", components.ICFieldPortType)},
	},

	// Observability.
	"StatisticsComponent": {
		Provides: []PortSchema{prov("stats", components.StatsPortType)},
	},
	"TauTimer": {
		Provides: []PortSchema{prov("timing", components.TimingPortType)},
	},
	"RHSMonitor": {
		Params: map[string]*ParamSchema{"label": pStr("")},
		Uses: []PortSchema{
			need("inner", components.RHSPortType),
			need("timing", components.TimingPortType),
		},
		Provides: []PortSchema{prov("rhs", components.RHSPortType)},
	},
	"PatchRHSMonitor": {
		Params: map[string]*ParamSchema{"label": pStr("")},
		Uses: []PortSchema{
			need("inner", components.PatchRHSPortType),
			need("timing", components.TimingPortType),
		},
		Provides: []PortSchema{prov("patchRHS", components.PatchRHSPortType)},
	},

	// Drivers.
	"IgnitionDriver": {
		Params: map[string]*ParamSchema{
			"tEnd": pFloat("1e-3", 1e-12, 1e6),
			"nOut": pInt("50", 1, 1<<20),
		},
		Uses: []PortSchema{
			need("chemistry", components.ChemistryPortType),
			need("ic", components.ICStatePortType),
			need("integrator", components.ImplicitIntegratorType),
			need("stats", components.StatsPortType),
		},
		Provides: []PortSchema{prov("go", cca.GoPortType)},
		Driver:   &DriverSchema{ProgressKey: "T"},
	},
	"RDDriver": {
		Params: map[string]*ParamSchema{
			"dt":          pFloat("1e-7", 1e-15, 1e3),
			"steps":       pInt("5", 1, 1<<20),
			"regridEvery": pInt("0", 0, 1<<20),
			"splitting":   pEnum("lie", "lie", "strang"),
			"field":       pStr("phi"),
			"skipChem":    pBool("false"),
		},
		Uses: []PortSchema{
			use("cellChemistry", components.CellChemistryPortType),
			use("checkpoint", components.CheckpointPortType),
			need("chemistry", components.ChemistryPortType),
			use("exec", components.ExecutionPortType),
			need("explicit", components.ExplicitIntegratorType),
			need("ic", components.ICFieldPortType),
			need("mesh", components.MeshPortType),
			use("regrid", components.RegridPortType),
			use("stats", components.StatsPortType),
		},
		Provides: []PortSchema{prov("go", cca.GoPortType)},
		Driver:   &DriverSchema{DurationParam: "steps", ProgressKey: "cells", Checkpointable: true},
	},
	"ShockDriver": {
		Params: map[string]*ParamSchema{
			"tEnd":        pFloat("1.0", 1e-12, 1e12),
			"maxSteps":    pInt("10000", 1, 1<<20),
			"regridEvery": pInt("5", 0, 1<<20),
			"field":       pStr("U"),
		},
		Uses: []PortSchema{
			need("bc", components.BCPortType),
			need("characteristics", components.CharacteristicsPortType),
			use("checkpoint", components.CheckpointPortType),
			use("exec", components.ExecutionPortType),
			need("gasProperties", components.KeyValuePortType),
			need("ic", components.ICFieldPortType),
			need("integrator", components.ExplicitIntegratorType),
			need("mesh", components.MeshPortType),
			use("regrid", components.RegridPortType),
			use("stats", components.StatsPortType),
		},
		Provides: []PortSchema{prov("go", cca.GoPortType)},
		Driver:   &DriverSchema{DurationParam: "maxSteps", ProgressKey: "t", Checkpointable: true},
	},
}
