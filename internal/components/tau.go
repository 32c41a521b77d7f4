package components

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/cvode"
	"ccahydro/internal/field"
)

// The paper's future work item (4): "By using TAU, we intend to
// characterize the performance characteristics of individual components
// and their assemblies." This file implements that plan: a TAU-style
// timing component plus a proxy component that interposes on a port
// connection and measures every invocation crossing it — the standard
// CCA instrumentation pattern (the proxy provides and uses the same
// port type, so it splices into any wire without touching either end).

// TimingPortType identifies the measurement port.
const TimingPortType = "perf.TimingPort"

// TimingEntry is one timer's accumulated statistics.
type TimingEntry struct {
	Name    string
	Calls   int
	Seconds float64
}

// TimingPort collects named timers (the TAU analogue).
type TimingPort interface {
	// Record adds one observation.
	Record(name string, seconds float64)
	// Time wraps f with a timer.
	Time(name string, f func())
	// Summary returns entries sorted by descending total time.
	Summary() []TimingEntry
}

// TauTimer provides TimingPort — the measurement sink for instrumented
// assemblies.
type TauTimer struct {
	mu      sync.Mutex
	calls   map[string]int
	seconds map[string]float64
}

var tauTimerSpec = &Spec{
	Class: "TauTimer", New: func() cca.Component { return &TauTimer{} },
	Provides: []PortDecl{prov("timing", TimingPortType)},
}

// SetServices implements cca.Component.
func (tt *TauTimer) SetServices(svc cca.Services) error {
	tt.calls = make(map[string]int)
	tt.seconds = make(map[string]float64)
	return tauTimerSpec.register(svc, tt)
}

// Record implements TimingPort.
func (tt *TauTimer) Record(name string, seconds float64) {
	tt.mu.Lock()
	tt.calls[name]++
	tt.seconds[name] += seconds
	tt.mu.Unlock()
}

// Time implements TimingPort.
func (tt *TauTimer) Time(name string, f func()) {
	start := time.Now()
	f()
	tt.Record(name, time.Since(start).Seconds())
}

// Summary implements TimingPort.
func (tt *TauTimer) Summary() []TimingEntry {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	out := make([]TimingEntry, 0, len(tt.calls))
	for name, n := range tt.calls {
		out = append(out, TimingEntry{Name: name, Calls: n, Seconds: tt.seconds[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// WriteReport renders the summary as text.
func (tt *TauTimer) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "%-32s %10s %14s %14s\n", "timer", "calls", "total (s)", "per call (s)")
	for _, e := range tt.Summary() {
		per := 0.0
		if e.Calls > 0 {
			per = e.Seconds / float64(e.Calls)
		}
		fmt.Fprintf(w, "%-32s %10d %14.6f %14.9f\n", e.Name, e.Calls, e.Seconds, per)
	}
}

// RHSMonitor is a proxy component that splices into an ode.RHSPort
// wire: it uses the real RHS ("inner") and a TimingPort, and provides
// an identically typed "rhs" port that delegates while measuring. The
// "label" parameter, or the instance name when it is empty, labels the
// timer, so multiple monitors can share one TauTimer.
type RHSMonitor struct {
	svc   cca.Services
	inner RHSPort
	tp    TimingPort
	label string
	// once guards the lazy port fetch: Eval may first run on pool
	// goroutines when the downstream integrator fans out.
	once sync.Once
}

var rhsMonitorSpec = &Spec{
	Class: "RHSMonitor", New: func() cca.Component { return &RHSMonitor{} },
	Params:   map[string]Param{"label": sparam("")},
	Uses:     []PortDecl{need("inner", RHSPortType), need("timing", TimingPortType)},
	Provides: []PortDecl{prov("rhs", RHSPortType)},
}

// SetServices implements cca.Component.
func (rm *RHSMonitor) SetServices(svc cca.Services) error {
	rm.svc = svc
	rm.label = monitorLabel(rhsMonitorSpec, svc)
	return rhsMonitorSpec.register(svc, rm)
}

// monitorLabel is a monitor's timer label: its "label" parameter, or
// its instance name when that is empty.
func monitorLabel(spec *Spec, svc cca.Services) string {
	if l := spec.Str(svc.Parameters(), "label"); l != "" {
		return l
	}
	return svc.InstanceName()
}

func (rm *RHSMonitor) fetch() {
	rm.once.Do(func() {
		p, err := rm.svc.GetPort("inner")
		if err != nil {
			panic(err)
		}
		rm.inner = p.(RHSPort)
		tp, err := rm.svc.GetPort("timing")
		if err != nil {
			panic(err)
		}
		rm.tp = tp.(TimingPort)
	})
}

// Dim implements RHSPort.
func (rm *RHSMonitor) Dim() int {
	rm.fetch()
	return rm.inner.Dim()
}

// Eval implements RHSPort: delegate and record.
func (rm *RHSMonitor) Eval(t float64, y, ydot []float64) {
	rm.fetch()
	start := time.Now()
	rm.inner.Eval(t, y, ydot)
	rm.tp.Record(rm.label, time.Since(start).Seconds())
}

// JacFn implements JacobianRHSPort: the monitor forwards the analytic
// Jacobian capability when the wrapped RHS offers one, timing builds
// under "<label>.jac" — splicing a monitor into a wire must never
// silently downgrade the solver to finite differences.
func (rm *RHSMonitor) JacFn() cvode.Jac {
	rm.fetch()
	jp, ok := rm.inner.(JacobianRHSPort)
	if !ok {
		return nil
	}
	fn := jp.JacFn()
	if fn == nil {
		return nil
	}
	label := rm.label + ".jac"
	return func(t float64, y, jac []float64) {
		start := time.Now()
		fn(t, y, jac)
		rm.tp.Record(label, time.Since(start).Seconds())
	}
}

// PatchRHSMonitor is the same proxy for samr.PatchRHSPort wires (the
// flame's diffusion RHS and the shock's inviscid flux both flow through
// that port type).
type PatchRHSMonitor struct {
	svc   cca.Services
	inner PatchRHSPort
	tp    TimingPort
	label string
	// once guards the lazy port fetch: EvalPatch/EvalRegion run on
	// pool goroutines inside the level drivers' fan-outs.
	once sync.Once
}

var patchRHSMonitorSpec = &Spec{
	Class: "PatchRHSMonitor", New: func() cca.Component { return &PatchRHSMonitor{} },
	Params:   map[string]Param{"label": sparam("")},
	Uses:     []PortDecl{need("inner", PatchRHSPortType), need("timing", TimingPortType)},
	Provides: []PortDecl{prov("patchRHS", PatchRHSPortType)},
}

// SetServices implements cca.Component.
func (pm *PatchRHSMonitor) SetServices(svc cca.Services) error {
	pm.svc = svc
	pm.label = monitorLabel(patchRHSMonitorSpec, svc)
	return patchRHSMonitorSpec.register(svc, pm)
}

func (pm *PatchRHSMonitor) fetch() {
	pm.once.Do(func() {
		p, err := pm.svc.GetPort("inner")
		if err != nil {
			panic(err)
		}
		pm.inner = p.(PatchRHSPort)
		tp, err := pm.svc.GetPort("timing")
		if err != nil {
			panic(err)
		}
		pm.tp = tp.(TimingPort)
	})
}

// EvalPatch implements PatchRHSPort.
func (pm *PatchRHSMonitor) EvalPatch(pd, out *field.PatchData, dx, dy float64) {
	pm.fetch()
	start := time.Now()
	pm.inner.EvalPatch(pd, out, dx, dy)
	pm.tp.Record(pm.label, time.Since(start).Seconds())
}

// SupportsRegion reports whether the wrapped component provides
// RegionRHSPort; drivers consult it (via regionRHS) before engaging
// the overlapped split through the proxy.
func (pm *PatchRHSMonitor) SupportsRegion() bool {
	pm.fetch()
	_, ok := pm.inner.(RegionRHSPort)
	return ok
}

// EvalRegion passes RegionRHSPort through the proxy when the inner
// component offers it, so splicing a monitor into a wire does not
// silently disable the drivers' exchange/compute overlap.
func (pm *PatchRHSMonitor) EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	pm.fetch()
	rr, ok := pm.inner.(RegionRHSPort)
	if !ok {
		panic("components: PatchRHSMonitor inner port does not provide EvalRegion")
	}
	start := time.Now()
	rr.EvalRegion(pd, out, region, dx, dy)
	pm.tp.Record(pm.label, time.Since(start).Seconds())
}
