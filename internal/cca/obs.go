package cca

import (
	"sync"

	"ccahydro/internal/obs"
	"ccahydro/internal/telemetry"
)

// Port-call interception. With observability enabled, GetPort hands the
// using component an instrumented proxy instead of the raw provider
// port, so every method invocation crossing the wire is counted and its
// latency recorded under port_call_seconds{instance,port,method} — a
// direct, always-on re-measurement of the paper's Table 4 component
// invocation overhead on whatever assembly is actually running.
//
// Go cannot synthesize an implementation of an arbitrary interface at
// runtime, so proxies are hand-written per port type and registered
// here by the package that owns the interface definitions (the CCA
// spec's "user community" — internal/components). Port types without a
// registered wrapper pass through unwrapped; their wires stay exactly
// as fast as with observability off.

// PortWrapper builds an instrumented proxy around inner. instance and
// portName label the metrics (the *using* side's instance and uses-port
// name, matching how Table 4 counts caller-side invocation cost). The
// returned Port must implement every interface inner exposes that
// callers probe for — including optional capability interfaces — or
// return inner unchanged when it cannot.
type PortWrapper func(o *obs.Obs, instance, portName string, inner Port) Port

var portWrappers struct {
	mu sync.RWMutex
	m  map[string]PortWrapper
}

// RegisterPortWrapper installs the proxy factory for one port type
// string, typically from an init function of the port-owning package.
// It panics if the type already has a wrapper: two proxies claiming one
// port type is a wiring bug, and letting either win silently would
// hide it.
func RegisterPortWrapper(portType string, w PortWrapper) {
	portWrappers.mu.Lock()
	defer portWrappers.mu.Unlock()
	if portWrappers.m == nil {
		portWrappers.m = make(map[string]PortWrapper)
	}
	if _, dup := portWrappers.m[portType]; dup {
		panic("cca: duplicate port wrapper for " + portType)
	}
	portWrappers.m[portType] = w
}

// wrapPort resolves the proxy for one fetched wire. Called at most once
// per uses entry per connection (the instance caches the result), so
// the map lookup and proxy allocation never sit on a hot path.
func wrapPort(o *obs.Obs, instance, portName, portType string, inner Port) Port {
	portWrappers.mu.RLock()
	w := portWrappers.m[portType]
	portWrappers.mu.RUnlock()
	if w == nil {
		return inner
	}
	if p := w(o, instance, portName, inner); p != nil {
		return p
	}
	return inner
}

// SetObservability attaches (or, with nil, detaches) an observability
// session to the framework. With a session attached, GetPort returns
// instrumented proxies for wrapped port types and the framework's
// communicator reports message flights to the session's tracer. Call
// before the simulation starts; attaching mid-run only affects ports
// fetched afterwards.
func (f *Framework) SetObservability(o *obs.Obs) {
	f.obs = o
	if f.comm != nil {
		f.comm.SetTracer(o.Tracer())
	}
	// Invalidate any proxies cached under a previous session.
	for _, in := range f.instances {
		in.mu.Lock()
		for _, u := range in.uses {
			u.proxy = nil
		}
		in.mu.Unlock()
	}
}

// Observability returns the attached session, or nil.
func (f *Framework) Observability() *obs.Obs { return f.obs }

// SetTelemetry attaches (or, with nil, detaches) the rank's live
// telemetry handle; components read it through Services.Telemetry().
// Unlike observability there is nothing to invalidate — the handle is
// consulted at emit time, not baked into proxies.
func (f *Framework) SetTelemetry(rk *telemetry.Rank) { f.tel = rk }

// Telemetry returns the attached telemetry handle, or nil.
func (f *Framework) Telemetry() *telemetry.Rank { return f.tel }
