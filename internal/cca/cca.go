// Package cca implements a Common Component Architecture (CCA)
// component model and a Ccaffeine-style hosting framework in pure Go.
//
// The model follows the paper's description of Ccaffeine:
//
//   - Components are peers created inside a Framework. Each implements
//     the single deferred method SetServices, which the framework calls
//     at instantiation; the component uses it to register its
//     ProvidesPorts and declare its UsesPorts.
//   - Ports are data-less abstract interfaces. Connecting a uses port
//     to a provides port is just the movement of an interface value
//     from the providing to the using component, so a method invocation
//     on a uses port costs one interface-method dispatch — the Go
//     analogue of the C++ virtual-function call the paper measures in
//     Table 4.
//   - The framework is SCMD (Single Component Multiple Data): identical
//     frameworks holding identical component assemblies run on P ranks,
//     and the framework lends a properly scoped communicator to any
//     component that asks. All message passing happens inside component
//     cohorts; the framework itself never moves data.
//
// Where Ccaffeine loads components from shared-object libraries via
// dlopen, Go programs cannot portably dlopen Go code, so this package
// substitutes a Repository of registered factories; the assembly
// scripts' "repository get" command resolves class names against it.
package cca

import (
	"errors"
	"fmt"
	"sync"

	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
	"ccahydro/internal/telemetry"
)

// Port is the marker interface for CCA ports. Concrete ports are
// ordinary Go interfaces (MeshPort, RHSPort, ...) whose definitions are
// owned by the user community, exactly as in the CCA specification.
type Port any

// Component is the data-less abstract base of the CCA model. The
// framework invokes SetServices exactly once, at instantiation; the
// component registers itself, its UsesPorts and its ProvidesPorts
// through the provided Services handle and must retain the handle if it
// wants to fetch ports later.
type Component interface {
	SetServices(svc Services) error
}

// GoPort is the standard CCA start port: the framework's "go" command
// locates a provides port of type "gov.cca.ports.GoPort" on a driver
// component and invokes Go once on it.
type GoPort interface {
	Go() error
}

// GoPortType is the canonical type string for GoPort provides ports.
const GoPortType = "gov.cca.ports.GoPort"

// Services is the component's window into its hosting framework. It is
// handed to SetServices and stays valid for the component's lifetime.
type Services interface {
	// AddProvidesPort exports a functionality. The port value must
	// implement whatever interface the portType names; name must be
	// unique among this component's provides ports.
	AddProvidesPort(port Port, name, portType string) error

	// RegisterUsesPort declares that this component will call through a
	// port of the given type under the given local name.
	RegisterUsesPort(name, portType string) error

	// GetPort returns the port connected to the named uses port. It
	// fails if the uses port was never registered or is not connected.
	GetPort(name string) (Port, error)

	// ReleasePort signals that the component is done with the port
	// fetched under name (reference counting hook; release of an
	// unfetched port is a no-op).
	ReleasePort(name string)

	// Comm returns the framework-scoped communicator lent to this
	// component's cohort, or nil in a serial (non-SCMD) framework.
	Comm() *mpi.Comm

	// Parameters returns this instance's parameter TypeMap, populated
	// by "parameter" script commands or programmatic SetParameter calls
	// before SetServices runs.
	Parameters() *TypeMap

	// InstanceName returns the name this component was instantiated
	// under.
	InstanceName() string

	// Observability returns the framework's observability session, or
	// nil when observability is disabled (the default). Components use
	// it to open tracer spans around their own phases; the framework
	// itself uses it to interpose on port wires. A nil result is safe
	// to call span helpers on.
	Observability() *obs.Obs

	// Telemetry returns the rank's live-telemetry handle, or nil when
	// the telemetry plane is detached (the default). A nil handle
	// accepts every call as a no-op, so drivers emit events unguarded.
	Telemetry() *telemetry.Rank
}

// Sentinel errors returned by framework and services operations.
var (
	ErrPortNotFound      = errors.New("cca: port not found")
	ErrPortExists        = errors.New("cca: port already defined")
	ErrPortNotConnected  = errors.New("cca: uses port not connected")
	ErrTypeMismatch      = errors.New("cca: port type mismatch")
	ErrUnknownClass      = errors.New("cca: unknown component class")
	ErrUnknownInstance   = errors.New("cca: unknown component instance")
	ErrInstanceExists    = errors.New("cca: instance name already in use")
	ErrAlreadyConnected  = errors.New("cca: uses port already connected")
	ErrNotGoPort         = errors.New("cca: port does not implement GoPort")
	ErrSelfConnection    = errors.New("cca: cannot connect a component to itself on the same port pair")
	ErrPortInUse         = errors.New("cca: port still fetched; release before disconnect")
	ErrBadPortDefinition = errors.New("cca: invalid port definition")
)

// providesEntry is one exported port on an instance.
type providesEntry struct {
	port     Port
	portType string
}

// usesEntry is one declared dependency of an instance.
type usesEntry struct {
	portType string
	// conn is the connected provider port, nil while unconnected.
	conn Port
	// provider records where the connection leads, for introspection.
	provider     string
	providerPort string
	// fetches counts outstanding GetPort minus ReleasePort calls.
	fetches int
	// proxy caches the instrumented wrapper around conn when the
	// framework's observability is on; nil otherwise or until the
	// first GetPort. Invalidated by Connect/Disconnect.
	proxy Port
	// errNotConnected is GetPort's error while conn is nil, built on
	// the first such call and reused: components probe optional ports
	// on hot paths, and an unconnected probe must not format an error
	// per call.
	errNotConnected error
}

// instance is one live component inside a framework.
type instance struct {
	name      string
	className string
	comp      Component
	provides  map[string]*providesEntry
	uses      map[string]*usesEntry
	params    *TypeMap
	fw        *Framework
	// mu guards the mutable fields of uses entries (conn, fetches).
	// GetPort/ReleasePort may be called from parallel worker goroutines
	// while kernels run, so the reference counting must be atomic with
	// respect to Connect/Disconnect.
	mu sync.Mutex
}

var _ Services = (*instance)(nil)

func (in *instance) AddProvidesPort(port Port, name, portType string) error {
	if port == nil || name == "" || portType == "" {
		return fmt.Errorf("%w: name=%q type=%q", ErrBadPortDefinition, name, portType)
	}
	if _, dup := in.provides[name]; dup {
		return fmt.Errorf("%w: provides %q on %q", ErrPortExists, name, in.name)
	}
	if _, dup := in.uses[name]; dup {
		return fmt.Errorf("%w: %q already a uses port on %q", ErrPortExists, name, in.name)
	}
	in.provides[name] = &providesEntry{port: port, portType: portType}
	return nil
}

func (in *instance) RegisterUsesPort(name, portType string) error {
	if name == "" || portType == "" {
		return fmt.Errorf("%w: name=%q type=%q", ErrBadPortDefinition, name, portType)
	}
	if _, dup := in.uses[name]; dup {
		return fmt.Errorf("%w: uses %q on %q", ErrPortExists, name, in.name)
	}
	if _, dup := in.provides[name]; dup {
		return fmt.Errorf("%w: %q already a provides port on %q", ErrPortExists, name, in.name)
	}
	in.uses[name] = &usesEntry{portType: portType}
	return nil
}

func (in *instance) GetPort(name string) (Port, error) {
	u, ok := in.uses[name]
	if !ok {
		return nil, fmt.Errorf("%w: uses %q on %q", ErrPortNotFound, name, in.name)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if u.conn == nil {
		if u.errNotConnected == nil {
			u.errNotConnected = fmt.Errorf("%w: %q on %q", ErrPortNotConnected, name, in.name)
		}
		return nil, u.errNotConnected
	}
	u.fetches++
	if o := in.fw.obs; o != nil {
		if u.proxy == nil {
			u.proxy = wrapPort(o, in.name, name, u.portType, u.conn)
		}
		return u.proxy, nil
	}
	return u.conn, nil
}

func (in *instance) ReleasePort(name string) {
	if u, ok := in.uses[name]; ok {
		in.mu.Lock()
		if u.fetches > 0 {
			u.fetches--
		}
		in.mu.Unlock()
	}
}

func (in *instance) Comm() *mpi.Comm            { return in.fw.comm }
func (in *instance) Parameters() *TypeMap       { return in.params }
func (in *instance) InstanceName() string       { return in.name }
func (in *instance) Observability() *obs.Obs    { return in.fw.obs }
func (in *instance) Telemetry() *telemetry.Rank { return in.fw.tel }

// Connection describes one live uses→provides wire, for introspection
// (the GUI "arena" view of Fig 1 rendered as text).
type Connection struct {
	User         string
	UsesPort     string
	Provider     string
	ProvidesPort string
	PortType     string
}

// Framework hosts component instances and wires their ports. One
// Framework corresponds to one rank's Ccaffeine instance; under SCMD, P
// identically configured Frameworks exist, one per rank.
type Framework struct {
	repo      *Repository
	comm      *mpi.Comm
	instances map[string]*instance
	order     []string // instantiation order, for deterministic listings
	pending   map[string]*TypeMap
	// obs is the rank's observability session; nil (the default) keeps
	// GetPort returning raw provider ports with zero added work.
	obs *obs.Obs
	// tel is the rank's live-telemetry handle; nil (the default) keeps
	// instrumented drivers on the no-op path.
	tel *telemetry.Rank
}

// NewFramework creates an empty framework resolving classes against
// repo. comm may be nil for serial use.
func NewFramework(repo *Repository, comm *mpi.Comm) *Framework {
	return &Framework{
		repo:      repo,
		comm:      comm,
		instances: make(map[string]*instance),
		pending:   make(map[string]*TypeMap),
	}
}

// SetParameter stages a parameter for an instance name before it is
// instantiated (mirrors the script's "parameter" command which may
// precede "instantiate" in hand-written files). If the instance already
// exists the parameter is applied immediately.
func (f *Framework) SetParameter(instanceName, key, value string) error {
	if in, ok := f.instances[instanceName]; ok {
		in.params.SetString(key, value)
		return nil
	}
	tm, ok := f.pending[instanceName]
	if !ok {
		tm = NewTypeMap()
		f.pending[instanceName] = tm
	}
	tm.SetString(key, value)
	return nil
}

// Instantiate creates an instance of the named class, calls its
// SetServices, and records it under instanceName.
func (f *Framework) Instantiate(className, instanceName string) error {
	if _, dup := f.instances[instanceName]; dup {
		return fmt.Errorf("%w: %q", ErrInstanceExists, instanceName)
	}
	factory, ok := f.repo.lookup(className)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClass, className)
	}
	params := f.pending[instanceName]
	if params == nil {
		params = NewTypeMap()
	}
	delete(f.pending, instanceName)
	in := &instance{
		name:      instanceName,
		className: className,
		comp:      factory(),
		provides:  make(map[string]*providesEntry),
		uses:      make(map[string]*usesEntry),
		params:    params,
		fw:        f,
	}
	if err := in.comp.SetServices(in); err != nil {
		return fmt.Errorf("cca: SetServices(%q of class %q): %w", instanceName, className, err)
	}
	f.instances[instanceName] = in
	f.order = append(f.order, instanceName)
	return nil
}

// Connect wires user's uses port to provider's provides port. Port type
// strings must match exactly; this is the CCA contract check.
func (f *Framework) Connect(user, usesPort, provider, providesPort string) error {
	ui, ok := f.instances[user]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInstance, user)
	}
	pi, ok := f.instances[provider]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInstance, provider)
	}
	u, ok := ui.uses[usesPort]
	if !ok {
		return fmt.Errorf("%w: uses %q on %q", ErrPortNotFound, usesPort, user)
	}
	p, ok := pi.provides[providesPort]
	if !ok {
		return fmt.Errorf("%w: provides %q on %q", ErrPortNotFound, providesPort, provider)
	}
	ui.mu.Lock()
	defer ui.mu.Unlock()
	if u.conn != nil {
		return fmt.Errorf("%w: %q.%q", ErrAlreadyConnected, user, usesPort)
	}
	if u.portType != p.portType {
		return fmt.Errorf("%w: %q.%q wants %q, %q.%q provides %q",
			ErrTypeMismatch, user, usesPort, u.portType, provider, providesPort, p.portType)
	}
	if user == provider && usesPort == providesPort {
		return fmt.Errorf("%w: %q.%q", ErrSelfConnection, user, usesPort)
	}
	u.conn = p.port
	u.provider = provider
	u.providerPort = providesPort
	u.proxy = nil
	return nil
}

// Disconnect severs a previously made connection. It fails while the
// user still holds fetches on the port.
func (f *Framework) Disconnect(user, usesPort string) error {
	ui, ok := f.instances[user]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInstance, user)
	}
	u, ok := ui.uses[usesPort]
	if !ok {
		return fmt.Errorf("%w: uses %q on %q", ErrPortNotFound, usesPort, user)
	}
	ui.mu.Lock()
	defer ui.mu.Unlock()
	if u.conn == nil {
		return fmt.Errorf("%w: %q.%q", ErrPortNotConnected, user, usesPort)
	}
	if u.fetches > 0 {
		return fmt.Errorf("%w: %q.%q has %d outstanding fetches", ErrPortInUse, user, usesPort, u.fetches)
	}
	u.conn = nil
	u.provider = ""
	u.providerPort = ""
	u.proxy = nil
	return nil
}

// Destroy removes an instance from the framework. It fails while any
// other component is connected to one of the instance's provides
// ports (disconnect first), mirroring Ccaffeine's destroy semantics.
func (f *Framework) Destroy(instanceName string) error {
	in, ok := f.instances[instanceName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInstance, instanceName)
	}
	for _, other := range f.instances {
		if other == in {
			continue
		}
		for pn, u := range other.uses {
			if u.conn != nil && u.provider == instanceName {
				return fmt.Errorf("cca: cannot destroy %q: %q.%q is connected to it",
					instanceName, other.name, pn)
			}
		}
	}
	delete(f.instances, instanceName)
	for i, n := range f.order {
		if n == instanceName {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	return nil
}

// Go invokes the GoPort named portName provided by the named instance —
// the framework's "go" command that starts a simulation.
func (f *Framework) Go(instanceName, portName string) error {
	in, ok := f.instances[instanceName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInstance, instanceName)
	}
	p, ok := in.provides[portName]
	if !ok {
		return fmt.Errorf("%w: provides %q on %q", ErrPortNotFound, portName, instanceName)
	}
	gp, ok := p.port.(GoPort)
	if !ok {
		return fmt.Errorf("%w: %q.%q has type %q", ErrNotGoPort, instanceName, portName, p.portType)
	}
	return gp.Go()
}

// Instances lists instance names in creation order.
func (f *Framework) Instances() []string {
	return append([]string(nil), f.order...)
}

// ClassOf returns the class an instance was created from.
func (f *Framework) ClassOf(instanceName string) (string, error) {
	in, ok := f.instances[instanceName]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownInstance, instanceName)
	}
	return in.className, nil
}

// Lookup returns the raw component behind an instance name. It exists
// for drivers that need to hand results out of the framework (the
// paper's GUI inspects components the same way).
func (f *Framework) Lookup(instanceName string) (Component, error) {
	in, ok := f.instances[instanceName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, instanceName)
	}
	return in.comp, nil
}

// Connections lists all live wires in deterministic (creation, then
// port-name) order.
func (f *Framework) Connections() []Connection {
	var out []Connection
	for _, name := range f.order {
		in := f.instances[name]
		names := make([]string, 0, len(in.uses))
		for pn := range in.uses {
			names = append(names, pn)
		}
		sortStrings(names)
		for _, pn := range names {
			u := in.uses[pn]
			if u.conn == nil {
				continue
			}
			out = append(out, Connection{
				User: name, UsesPort: pn,
				Provider: u.provider, ProvidesPort: u.providerPort,
				PortType: u.portType,
			})
		}
	}
	return out
}

// ProvidedPorts lists (name, type) of an instance's provides ports in
// name order; UsesPorts does the same for uses ports. Both power the
// textual "arena" rendering.
func (f *Framework) ProvidedPorts(instanceName string) ([][2]string, error) {
	in, ok := f.instances[instanceName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, instanceName)
	}
	names := make([]string, 0, len(in.provides))
	for n := range in.provides {
		names = append(names, n)
	}
	sortStrings(names)
	out := make([][2]string, len(names))
	for i, n := range names {
		out[i] = [2]string{n, in.provides[n].portType}
	}
	return out, nil
}

// UsesPorts lists (name, type) of an instance's uses ports in name order.
func (f *Framework) UsesPorts(instanceName string) ([][2]string, error) {
	in, ok := f.instances[instanceName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, instanceName)
	}
	names := make([]string, 0, len(in.uses))
	for n := range in.uses {
		names = append(names, n)
	}
	sortStrings(names)
	out := make([][2]string, len(names))
	for i, n := range names {
		out[i] = [2]string{n, in.uses[n].portType}
	}
	return out, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
