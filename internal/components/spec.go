package components

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"ccahydro/internal/cca"
)

// A component is its ports plus its parameters. Each class states that
// contract exactly once, in a Spec declared beside its SetServices:
// SetServices registers the declared ports through spec.register, the
// component reads its parameters through the spec's typed accessors (so
// every default exists in one place), and the scenario validator checks
// assemblies against the same declarations before anything is
// instantiated. The Spec is a static table: reading it builds nothing.

// ParamKind is the value domain of a component parameter.
type ParamKind int

const (
	KindString ParamKind = iota
	KindInt
	KindFloat
	KindBool
	KindEnum
)

// Param declares one parameter: its kind, its default (as a scenario
// would write it), and either an inclusive [Min, Max] range (int and
// float) or the sorted enumeration of legal values.
type Param struct {
	Kind     ParamKind
	Default  string
	Min, Max float64
	Enum     []string
}

// PortDecl declares one port: its name, its type string (connections
// require an exact match), and — for uses ports — whether the component
// panics without it (Required) or degrades gracefully.
type PortDecl struct {
	Name     string
	Type     string
	Required bool
}

// DriverMeta is the run-server metadata of a class that provides a go
// port: the run-length knob excluded from the dedup prefix key ("" when
// the driver has none) and the statistics series whose length counts
// completed steps.
type DriverMeta struct {
	DurationParam string
	ProgressKey   string
}

// Spec is one component class's whole contract. Ports are listed in
// name order.
type Spec struct {
	Class    string
	New      cca.Factory
	Params   map[string]Param
	Uses     []PortDecl
	Provides []PortDecl
	Driver   *DriverMeta
}

func iparam(def string, min, max float64) Param {
	return Param{Kind: KindInt, Default: def, Min: min, Max: max}
}

func fparam(def string, min, max float64) Param {
	return Param{Kind: KindFloat, Default: def, Min: min, Max: max}
}

func bparam(def string) Param { return Param{Kind: KindBool, Default: def} }

func sparam(def string) Param { return Param{Kind: KindString, Default: def} }

func eparam(def string, vals ...string) Param {
	sort.Strings(vals)
	return Param{Kind: KindEnum, Default: def, Enum: vals}
}

func use(name, typ string) PortDecl { return PortDecl{Name: name, Type: typ} }

func need(name, typ string) PortDecl { return PortDecl{Name: name, Type: typ, Required: true} }

func prov(name, typ string) PortDecl { return PortDecl{Name: name, Type: typ} }

// execUse is the optional "exec" uses port: unconnected, a component
// runs its loops on the process-wide default pool (see optionalPool).
var execUse = use("exec", ExecutionPortType)

// register declares every port of the spec on svc — the one place a
// component calls RegisterUsesPort and AddProvidesPort. ports[i] is the
// value exported as Provides[i]. Every registration error is returned.
func (s *Spec) register(svc cca.Services, ports ...cca.Port) error {
	if len(ports) != len(s.Provides) {
		return fmt.Errorf("components: %s declares %d provides ports, SetServices supplied %d",
			s.Class, len(s.Provides), len(ports))
	}
	var err error
	for _, u := range s.Uses {
		if e := svc.RegisterUsesPort(u.Name, u.Type); e != nil {
			err = errors.Join(err, e)
		}
	}
	for i, p := range s.Provides {
		if e := svc.AddProvidesPort(ports[i], p.Name, p.Type); e != nil {
			err = errors.Join(err, e)
		}
	}
	return err
}

// param returns the declaration of key. An undeclared key or a read of
// the wrong kind is a bug in the component, not bad input, so it
// panics; Str also reads enum parameters.
func (s *Spec) param(key string, kind ParamKind) Param {
	p, ok := s.Params[key]
	if !ok {
		panic(fmt.Sprintf("components: %s declares no parameter %q", s.Class, key))
	}
	if p.Kind != kind && !(kind == KindString && p.Kind == KindEnum) {
		panic(fmt.Sprintf("components: %s parameter %q read as the wrong kind", s.Class, key))
	}
	return p
}

// Float reads a float parameter from an instance's TypeMap, falling
// back to the declared default when it is absent or malformed (a nil
// TypeMap yields the default).
func (s *Spec) Float(tm *cca.TypeMap, key string) float64 {
	def, _ := strconv.ParseFloat(s.param(key, KindFloat).Default, 64)
	if tm == nil {
		return def
	}
	return tm.GetFloat(key, def)
}

// Int reads an int parameter; see Float.
func (s *Spec) Int(tm *cca.TypeMap, key string) int {
	def, _ := strconv.Atoi(s.param(key, KindInt).Default)
	if tm == nil {
		return def
	}
	return tm.GetInt(key, def)
}

// Bool reads a bool parameter; see Float.
func (s *Spec) Bool(tm *cca.TypeMap, key string) bool {
	def, _ := strconv.ParseBool(s.param(key, KindBool).Default)
	if tm == nil {
		return def
	}
	return tm.GetBool(key, def)
}

// Str reads a string or enum parameter; see Float.
func (s *Spec) Str(tm *cca.TypeMap, key string) string {
	def := s.param(key, KindString).Default
	if tm == nil {
		return def
	}
	return tm.GetString(key, def)
}

// port fetches the port connected to the uses port name and releases
// the fetch. An unconnected optional port yields nil; an unconnected
// required port is a wiring bug and panics.
func (s *Spec) port(svc cca.Services, name string) cca.Port {
	p, err := svc.GetPort(name)
	if err != nil {
		if u := s.UsesPort(name); u != nil && !u.Required {
			return nil
		}
		panic(fmt.Sprintf("%s: %v", s.Class, err))
	}
	svc.ReleasePort(name)
	return p
}

// HasGo reports whether the class provides a go port (is a run target).
func (s *Spec) HasGo() bool {
	for _, p := range s.Provides {
		if p.Type == cca.GoPortType {
			return true
		}
	}
	return false
}

// Checkpointable reports whether the class can save and restore its
// run: exactly the drivers with a checkpoint uses port.
func (s *Spec) Checkpointable() bool {
	for _, u := range s.Uses {
		if u.Type == CheckpointPortType {
			return true
		}
	}
	return false
}

// UsesPort returns the declared uses port name, or nil.
func (s *Spec) UsesPort(name string) *PortDecl { return findPort(s.Uses, name) }

// ProvidesPort returns the declared provides port name, or nil.
func (s *Spec) ProvidesPort(name string) *PortDecl { return findPort(s.Provides, name) }

func findPort(ports []PortDecl, name string) *PortDecl {
	for i := range ports {
		if ports[i].Name == name {
			return &ports[i]
		}
	}
	return nil
}
