package components

import (
	"strconv"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
	"ccahydro/internal/obs"
)

// Port-call interceptor proxies — the one way a port is timed. When a
// framework has observability attached, cca.GetPort wraps each fetched
// wire in one of the proxies below; every call crossing the wire then
// lands in a port_call_seconds{instance,port,method} latency histogram
// — the running system's own Table 4 (component invocation cost), and
// the paper's future-work item of characterising components with TAU,
// measured per wire instead of in a dedicated micro-benchmark.
//
// Proxies are hand-written because Go cannot implement an arbitrary
// interface at runtime. Two forward more than a timed call: the RHS
// proxy wraps the analytic Jacobian evaluator so its builds land under
// the "Jac" method, and the implicit-integrator proxy wraps each
// per-worker integrator into the wire's own IntegrateTo histogram
// (their calls run on pool goroutines; histograms are atomic).
// MeshPort is deliberately NOT wrapped: drivers downcast it to the
// concrete *GrACEComponent for framework-internal fast paths, and a
// proxy would break that (and the identity of the mesh object).
//
// Registration happens in init, from this package, because the port
// interfaces live here — the CCA "user community" owns both the types
// and their instrumentation. Recording goes through obs.PortCall, which
// applies the session's sampling rate / latency floor (see
// Obs.SetPortCallSampling) and counts what it drops.

// obsLevelName labels a per-level span; callers only build it when a
// session is attached.
func obsLevelName(op string, level int) string {
	return op + " L" + strconv.Itoa(level)
}

// wrap registers the proxy factory for one port type: the wire's
// provider is asserted to P (a provider that is not passes through
// unwrapped), and build receives it with a histogram constructor bound
// to the wire's instance and port labels.
func wrap[P any](portType string, build func(inner P, h func(method string) *obs.PortCall) cca.Port) {
	cca.RegisterPortWrapper(portType, func(o *obs.Obs, inst, port string, inner cca.Port) cca.Port {
		p, ok := inner.(P)
		if !ok {
			return nil
		}
		return build(p, func(method string) *obs.PortCall { return o.PortCall(inst, port, method) })
	})
}

// proxy is the shape of a single-method proxy: the wrapped provider
// and the histogram of its one method.
type proxy[P any] struct {
	inner P
	h     *obs.PortCall
}

// iRHS instruments ode.RHSPort.
type iRHS struct {
	inner      RHSPort
	eval, jacf *obs.PortCall
}

func (p *iRHS) Eval(t float64, y, ydot []float64) {
	defer p.eval.ObserveSince(time.Now())
	p.inner.Eval(t, y, ydot)
}

// JacFn passes a nil evaluator through (the integrator then keeps its
// finite-difference Jacobian) and otherwise wraps the inner evaluator
// so analytic Jacobian builds land in the histogram alongside Eval.
func (p *iRHS) JacFn() cvode.Jac {
	fn := p.inner.JacFn()
	if fn == nil {
		return nil
	}
	h := p.jacf
	return func(t float64, y, jac []float64) {
		defer h.ObserveSince(time.Now())
		fn(t, y, jac)
	}
}

// iPatchRHS instruments samr.PatchRHSPort.
type iPatchRHS proxy[PatchRHSPort]

func (p *iPatchRHS) EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	defer p.h.ObserveSince(time.Now())
	p.inner.EvalRegion(pd, out, region, dx, dy)
}

// iImplicit instruments ode.ImplicitIntegratorPort. Per-worker
// integrators are wrapped into the same histogram, so fan-out cell
// integrations record alongside direct calls.
type iImplicit proxy[ImplicitIntegratorPort]

func (p *iImplicit) IntegrateTo(t0, t1 float64, y []float64) (cvode.Stats, error) {
	defer p.h.ObserveSince(time.Now())
	return p.inner.IntegrateTo(t0, t1, y)
}

func (p *iImplicit) WorkerIntegrator(w, width int) ImplicitIntegratorPort {
	return &iImplicit{inner: p.inner.WorkerIntegrator(w, width), h: p.h}
}

// Counters and RestoreCounters are forwarded untimed: checkpoint
// plumbing, called once per save or restore.
func (p *iImplicit) Counters() map[string]float64 { return p.inner.Counters() }

func (p *iImplicit) RestoreCounters(m map[string]float64) { p.inner.RestoreCounters(m) }

// iChemistry instruments chem.SourceTermPort.
type iChemistry struct {
	inner        ChemistryPort
	cp, cv, mech *obs.PortCall
}

func (p *iChemistry) Mechanism() *chem.Mechanism {
	defer p.mech.ObserveSince(time.Now())
	return p.inner.Mechanism()
}

// Kernel forwards the provider's kernel untimed: it is a capability
// getter adaptors call once at closure-build time, not a hot path.
func (p *iChemistry) Kernel() chem.Kernel { return p.inner.Kernel() }

func (p *iChemistry) ConstPressure(T, P float64, Y, dY []float64) float64 {
	defer p.cp.ObserveSince(time.Now())
	return p.inner.ConstPressure(T, P, Y, dY)
}

func (p *iChemistry) ConstVolume(T, rho float64, Y, dY []float64) float64 {
	defer p.cv.ObserveSince(time.Now())
	return p.inner.ConstVolume(T, rho, Y, dY)
}

// iDPDt instruments chem.DPDtPort.
type iDPDt proxy[DPDtPort]

func (p *iDPDt) DPDt(rho, T, dTdt float64, Y, dYdt []float64) float64 {
	defer p.h.ObserveSince(time.Now())
	return p.inner.DPDt(rho, T, dTdt, Y, dYdt)
}

// iTransport instruments transport.PropertiesPort.
type iTransport struct {
	inner      TransportPort
	props, max *obs.PortCall
}

func (p *iTransport) Properties(T, P float64, Y, X, D []float64) (float64, float64) {
	defer p.props.ObserveSince(time.Now())
	return p.inner.Properties(T, P, Y, X, D)
}

func (p *iTransport) MaxDiffusivity(T, P float64, Y []float64) float64 {
	defer p.max.ObserveSince(time.Now())
	return p.inner.MaxDiffusivity(T, P, Y)
}

// iSpectral instruments ode.SpectralRadiusPort.
type iSpectral proxy[SpectralRadiusPort]

func (p *iSpectral) MaxEigen(mesh MeshPort, name string) float64 {
	defer p.h.ObserveSince(time.Now())
	return p.inner.MaxEigen(mesh, name)
}

// iExplicit instruments samr.ExplicitIntegratorPort.
type iExplicit proxy[ExplicitIntegratorPort]

func (p *iExplicit) AdvanceLevel(mesh MeshPort, name string, level int, t0, t1 float64) error {
	defer p.h.ObserveSince(time.Now())
	return p.inner.AdvanceLevel(mesh, name, level, t0, t1)
}

// iCellChem instruments samr.CellChemistryPort; Counters and
// RestoreCounters are forwarded untimed, as on iImplicit.
type iCellChem proxy[CellChemistryPort]

func (p *iCellChem) AdvanceChemistry(mesh MeshPort, name string, dt float64) (int, error) {
	defer p.h.ObserveSince(time.Now())
	return p.inner.AdvanceChemistry(mesh, name, dt)
}

func (p *iCellChem) Counters() map[string]float64 { return p.inner.Counters() }

func (p *iCellChem) RestoreCounters(m map[string]float64) { p.inner.RestoreCounters(m) }

// iFlux instruments hydro.FluxPort.
type iFlux proxy[FluxPort]

func (p *iFlux) Row(g euler.Gas, l, r []euler.Primitive, f []euler.Conserved) {
	defer p.h.ObserveSince(time.Now())
	p.inner.Row(g, l, r, f)
}

// iStates instruments hydro.StatesPort.
type iStates proxy[StatesPort]

func (p *iStates) Row(g euler.Gas, pd *field.PatchData, i0, j0, dir int, l, r []euler.Primitive) {
	defer p.h.ObserveSince(time.Now())
	p.inner.Row(g, pd, i0, j0, dir, l, r)
}

// iCharacteristics instruments hydro.CharacteristicsPort.
type iCharacteristics proxy[CharacteristicsPort]

func (p *iCharacteristics) StableDt(mesh MeshPort, name string, level int) float64 {
	defer p.h.ObserveSince(time.Now())
	return p.inner.StableDt(mesh, name, level)
}

// iRegrid instruments samr.RegridPort.
type iRegrid proxy[RegridPort]

func (p *iRegrid) EstimateAndRegrid(mesh MeshPort, name string) bool {
	defer p.h.ObserveSince(time.Now())
	return p.inner.EstimateAndRegrid(mesh, name)
}

// iStats instruments util.StatisticsPort.
type iStats struct {
	inner          StatsPort
	rec, get, keys *obs.PortCall
}

func (p *iStats) Record(key string, value float64) {
	defer p.rec.ObserveSince(time.Now())
	p.inner.Record(key, value)
}

func (p *iStats) Get(key string) []float64 {
	defer p.get.ObserveSince(time.Now())
	return p.inner.Get(key)
}

func (p *iStats) Keys() []string {
	defer p.keys.ObserveSince(time.Now())
	return p.inner.Keys()
}

// iBC instruments samr.BoundaryConditionPort.
type iBC proxy[BCPort]

func (p *iBC) Apply(name string, level int) {
	defer p.h.ObserveSince(time.Now())
	p.inner.Apply(name, level)
}

// iICField instruments samr.InitialConditionPort.
type iICField proxy[ICFieldPort]

func (p *iICField) Impose(mesh MeshPort, name string) {
	defer p.h.ObserveSince(time.Now())
	p.inner.Impose(mesh, name)
}

// iICState instruments chem.InitialStatePort.
type iICState proxy[ICStatePort]

func (p *iICState) InitialState() (float64, float64, []float64) {
	defer p.h.ObserveSince(time.Now())
	return p.inner.InitialState()
}

// iKeyValue instruments db.KeyValuePort.
type iKeyValue struct {
	inner    KeyValuePort
	set, get *obs.PortCall
}

func (p *iKeyValue) SetValue(key string, v float64) {
	defer p.set.ObserveSince(time.Now())
	p.inner.SetValue(key, v)
}

func (p *iKeyValue) Value(key string) (float64, bool) {
	defer p.get.ObserveSince(time.Now())
	return p.inner.Value(key)
}

// iProlongRestrict instruments samr.ProlongRestrictPort.
type iProlongRestrict struct {
	inner        ProlongRestrictPort
	pro, res, cf *obs.PortCall
}

func (p *iProlongRestrict) Prolong(mesh MeshPort, name string, level int) {
	defer p.pro.ObserveSince(time.Now())
	p.inner.Prolong(mesh, name, level)
}

func (p *iProlongRestrict) Restrict(mesh MeshPort, name string, level int) {
	defer p.res.ObserveSince(time.Now())
	p.inner.Restrict(mesh, name, level)
}

func (p *iProlongRestrict) FillCoarseFine(mesh MeshPort, name string, level int) {
	defer p.cf.ObserveSince(time.Now())
	p.inner.FillCoarseFine(mesh, name, level)
}

func init() {
	wrap(RHSPortType, func(r RHSPort, h func(string) *obs.PortCall) cca.Port {
		return &iRHS{inner: r, eval: h("Eval"), jacf: h("Jac")}
	})
	wrap(PatchRHSPortType, func(r PatchRHSPort, h func(string) *obs.PortCall) cca.Port {
		return &iPatchRHS{inner: r, h: h("EvalRegion")}
	})
	wrap(ImplicitIntegratorType, func(r ImplicitIntegratorPort, h func(string) *obs.PortCall) cca.Port {
		return &iImplicit{inner: r, h: h("IntegrateTo")}
	})
	wrap(ChemistryPortType, func(r ChemistryPort, h func(string) *obs.PortCall) cca.Port {
		return &iChemistry{inner: r, cp: h("ConstPressure"), cv: h("ConstVolume"), mech: h("Mechanism")}
	})
	wrap(DPDtPortType, func(r DPDtPort, h func(string) *obs.PortCall) cca.Port {
		return &iDPDt{inner: r, h: h("DPDt")}
	})
	wrap(TransportPortType, func(r TransportPort, h func(string) *obs.PortCall) cca.Port {
		return &iTransport{inner: r, props: h("Properties"), max: h("MaxDiffusivity")}
	})
	wrap(SpectralRadiusPortType, func(r SpectralRadiusPort, h func(string) *obs.PortCall) cca.Port {
		return &iSpectral{inner: r, h: h("MaxEigen")}
	})
	wrap(ExplicitIntegratorType, func(r ExplicitIntegratorPort, h func(string) *obs.PortCall) cca.Port {
		return &iExplicit{inner: r, h: h("AdvanceLevel")}
	})
	wrap(CellChemistryPortType, func(r CellChemistryPort, h func(string) *obs.PortCall) cca.Port {
		return &iCellChem{inner: r, h: h("AdvanceChemistry")}
	})
	wrap(FluxPortType, func(r FluxPort, h func(string) *obs.PortCall) cca.Port {
		return &iFlux{inner: r, h: h("Row")}
	})
	wrap(StatesPortType, func(r StatesPort, h func(string) *obs.PortCall) cca.Port {
		return &iStates{inner: r, h: h("Row")}
	})
	wrap(CharacteristicsPortType, func(r CharacteristicsPort, h func(string) *obs.PortCall) cca.Port {
		return &iCharacteristics{inner: r, h: h("StableDt")}
	})
	wrap(RegridPortType, func(r RegridPort, h func(string) *obs.PortCall) cca.Port {
		return &iRegrid{inner: r, h: h("EstimateAndRegrid")}
	})
	wrap(StatsPortType, func(r StatsPort, h func(string) *obs.PortCall) cca.Port {
		return &iStats{inner: r, rec: h("Record"), get: h("Get"), keys: h("Keys")}
	})
	wrap(BCPortType, func(r BCPort, h func(string) *obs.PortCall) cca.Port {
		return &iBC{inner: r, h: h("Apply")}
	})
	wrap(ICFieldPortType, func(r ICFieldPort, h func(string) *obs.PortCall) cca.Port {
		return &iICField{inner: r, h: h("Impose")}
	})
	wrap(ICStatePortType, func(r ICStatePort, h func(string) *obs.PortCall) cca.Port {
		return &iICState{inner: r, h: h("InitialState")}
	})
	wrap(KeyValuePortType, func(r KeyValuePort, h func(string) *obs.PortCall) cca.Port {
		return &iKeyValue{inner: r, set: h("SetValue"), get: h("Value")}
	})
	wrap(ProlongRestrictPortType, func(r ProlongRestrictPort, h func(string) *obs.PortCall) cca.Port {
		return &iProlongRestrict{inner: r, pro: h("Prolong"), res: h("Restrict"), cf: h("FillCoarseFine")}
	})
	// Deliberately unwrapped: MeshPort (concrete downcasts),
	// ExecutionPort (identity of the pool matters), CheckpointPort and
	// LoadBalancerPort (framework plumbing, called once per step or
	// regrid, not component work).
}
