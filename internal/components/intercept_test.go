package components_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/cvode"
	"ccahydro/internal/field"
	"ccahydro/internal/obs"
)

// The interceptor is the one way a port is timed. These tests pin its
// measurement contract on real and synthetic wires: counts equal the
// calls the provider received, latency covers the provider's busy time,
// calls through per-worker integrators land in the wire's histogram,
// and attaching a session never changes results.

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// countingRHS is a synthetic inner RHS with a known per-call latency.
type countingRHS struct {
	calls int
	delay time.Duration
}

func (c *countingRHS) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(c, "rhs", components.RHSPortType)
}

func (c *countingRHS) Eval(_ float64, y, ydot []float64) {
	c.calls++
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	ydot[0], ydot[1] = y[1], -y[0]
}

// JacFn offers no analytic Jacobian.
func (c *countingRHS) JacFn() cvode.Jac { return nil }

// probe is a using-side component with one uses port per (name, type)
// pair; fetching through it goes through the framework, so an attached
// session hands back the interceptor proxy.
type probe struct {
	svc  cca.Services
	uses [][2]string
}

func (p *probe) SetServices(svc cca.Services) error {
	p.svc = svc
	for _, u := range p.uses {
		if err := svc.RegisterUsesPort(u[0], u[1]); err != nil {
			return err
		}
	}
	return nil
}

func (p *probe) port(t *testing.T, name string) cca.Port {
	t.Helper()
	port, err := p.svc.GetPort(name)
	must(t, err)
	p.svc.ReleasePort(name)
	return port
}

// addProbe instantiates a probe named "probe" in f with the given uses
// ports.
func addProbe(t *testing.T, repo *cca.Repository, f *cca.Framework, uses ...[2]string) *probe {
	t.Helper()
	p := &probe{uses: uses}
	repo.Register("Probe", func() cca.Component { return p })
	must(t, f.Instantiate("Probe", "probe"))
	return p
}

// params turns (instance, key, value) triples into run parameters.
func params(triples ...string) []core.Param {
	var out []core.Param
	for i := 0; i+2 < len(triples); i += 3 {
		out = append(out, core.Param{Instance: triples[i], Key: triples[i+1], Value: triples[i+2]})
	}
	return out
}

// hist returns the port-call histogram of one wire method, or a zero
// snapshot when it was never created.
func hist(g *obs.Group, instance, port, method string) obs.HistogramSnapshot {
	name := obs.PortCallName(instance, port, method)
	for _, h := range g.MergedSnapshot().Histograms {
		if h.Name == name {
			return h
		}
	}
	return obs.HistogramSnapshot{Name: name}
}

// TestInterceptorCountAndLatencyInvariants: on an RHS wire the
// histogram count equals the number of calls the provider received,
// the recorded total is at least the provider's real busy time (the
// proxy can only add overhead, never hide work), and results pass
// through unchanged.
func TestInterceptorCountAndLatencyInvariants(t *testing.T) {
	repo := components.NewRepository()
	inner := &countingRHS{delay: 200 * time.Microsecond}
	repo.Register("CountingRHS", func() cca.Component { return inner })
	f := cca.NewFramework(repo, nil)
	g := obs.NewGroup(1)
	f.SetObservability(g.Rank(0))
	must(t, f.Instantiate("CountingRHS", "inner"))
	p := addProbe(t, repo, f, [2]string{"rhs", components.RHSPortType})
	must(t, f.Connect("probe", "rhs", "inner", "rhs"))

	rhs := p.port(t, "rhs").(components.RHSPort)
	if rhs == components.RHSPort(inner) {
		t.Fatal("wire was not wrapped with a session attached")
	}
	const n = 10
	y, ydot := []float64{1, 0}, make([]float64, 2)
	for i := 0; i < n; i++ {
		rhs.Eval(0, y, ydot)
	}
	if ydot[0] != 0 || ydot[1] != -1 {
		t.Errorf("proxy altered the result: %v", ydot)
	}
	h := hist(g, "probe", "rhs", "Eval")
	if inner.calls != n || h.Count != n {
		t.Fatalf("inner saw %d calls, histogram counted %d, want %d each", inner.calls, h.Count, n)
	}
	if minBusy := float64(n) * 0.0002; h.SumSeconds < minBusy {
		t.Errorf("recorded %.6fs < inner busy time %.6fs", h.SumSeconds, minBusy)
	}
	if rhs.JacFn() != nil {
		t.Error("JacFn must be nil when the provider has no analytic Jacobian")
	}
}

// TestInterceptorTracedIgnition: a traced 0D ignition crosses the
// wrapped cvode.rhs wire with the analytic Jacobian and produces a
// temperature history bit-identical to the untraced run.
func TestInterceptorTracedIgnition(t *testing.T) {
	params := params("driver", "tEnd", "1e-4", "driver", "nOut", "4")
	plain, err := core.RunIgnition0D(params...)
	must(t, err)

	g := obs.NewGroup(1)
	f := cca.NewFramework(core.Repo(), nil)
	f.SetObservability(g.Rank(0))
	must(t, core.AssembleRequest(f, core.RunRequest{Problem: "ignition", Params: params}))
	must(t, f.Go("driver", "go"))
	comp, err := f.Lookup("driver")
	must(t, err)
	traced := comp.(*components.IgnitionDriver)

	if len(traced.Temps) != len(plain.Temps) {
		t.Fatalf("history lengths differ: %d traced vs %d plain", len(traced.Temps), len(plain.Temps))
	}
	for i := range plain.Temps {
		if traced.Temps[i] != plain.Temps[i] {
			t.Fatalf("Temps[%d] = %v traced, %v plain", i, traced.Temps[i], plain.Temps[i])
		}
	}
	if n := hist(g, "cvode", "rhs", "Jac").Count; n < 1 {
		t.Errorf("cvode/rhs/Jac calls = %d, want the analytic Jacobian on the wrapped wire", n)
	}
	if n := hist(g, "cvode", "rhs", "Eval").Count; n < 20 {
		t.Errorf("cvode/rhs/Eval calls = %d, expected many RHS invocations", n)
	}
}

// TestInterceptorTracedFlame: a traced small flame records region
// evaluations on the patch-RHS wire and whole-hierarchy chemistry
// advances, and the integrator wire counts exactly one IntegrateTo per
// advanced cell — the cells integrate through per-worker integrators,
// whose calls must land in the wire's own histogram.
func TestInterceptorTracedFlame(t *testing.T) {
	g := obs.NewGroup(1)
	f := cca.NewFramework(core.Repo(), nil)
	f.SetObservability(g.Rank(0))
	must(t, core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params(
		"grace", "nx", "16", "grace", "ny", "16", "grace", "maxLevels", "2",
		"driver", "steps", "2", "driver", "dt", "1e-7", "driver", "regridEvery", "1",
	)}))
	must(t, f.Go("driver", "go"))

	if n := hist(g, "rkc", "patchRHS", "EvalRegion").Count; n == 0 {
		t.Error("no EvalRegion calls recorded on rkc/patchRHS")
	}
	if n := hist(g, "driver", "cellChemistry", "AdvanceChemistry").Count; n == 0 {
		t.Error("no AdvanceChemistry calls recorded on driver/cellChemistry")
	}

	comp, err := f.Lookup("driver")
	must(t, err)
	cells := 0
	for _, n := range comp.(*components.RDDriver).CellsPerStep {
		cells += n
	}
	if n := hist(g, "implicit", "integrator", "IntegrateTo").Count; cells == 0 || n != uint64(cells) {
		t.Errorf("implicit/integrator/IntegrateTo calls = %d, want one per advanced cell (%d)", n, cells)
	}
}

// regionTally sits on a patch-RHS wire between an integrator and its
// physics and forwards every region, summing the rows plus columns the
// sweeps cross over the non-empty ones, and the cells evaluated.
type regionTally struct {
	svc   cca.Services
	once  sync.Once
	inner components.PatchRHSPort
	mu    sync.Mutex
	lines int
	cells int
}

func (rt *regionTally) SetServices(svc cca.Services) error {
	rt.svc = svc
	if err := svc.RegisterUsesPort("inner", components.PatchRHSPortType); err != nil {
		return err
	}
	return svc.AddProvidesPort(rt, "patchRHS", components.PatchRHSPortType)
}

func (rt *regionTally) EvalRegion(pd, out *field.PatchData, region amr.Box, dx, dy float64) {
	rt.once.Do(func() {
		p, err := rt.svc.GetPort("inner")
		if err != nil {
			panic(err)
		}
		rt.svc.ReleasePort("inner")
		rt.inner = p.(components.PatchRHSPort)
	})
	if !region.Empty() {
		nx, ny := region.Size()
		rt.mu.Lock()
		rt.lines += nx + ny
		rt.cells += region.NumCells()
		rt.mu.Unlock()
	}
	rt.inner.EvalRegion(pd, out, region, dx, dy)
}

// TestInterceptorShockPortGranularity: a traced shock crosses the
// states and flux wires once per row of the x sweep and once per
// column of the y sweep — the paper's patch-array granularity — so
// each wire records only Row, exactly as many times as the evaluated
// regions have rows plus columns, not once per face.
func TestInterceptorShockPortGranularity(t *testing.T) {
	repo := core.Repo()
	tally := &regionTally{}
	repo.Register("RegionTally", func() cca.Component { return tally })
	g := obs.NewGroup(1)
	f := cca.NewFramework(repo, nil)
	f.SetObservability(g.Rank(0))
	must(t, core.AssembleRequest(f, core.RunRequest{Problem: "shock", Params: params(
		"grace", "nx", "32", "grace", "ny", "16", "grace", "lx", "2.0", "grace", "ly", "1.0",
		"grace", "maxLevels", "2", "driver", "maxSteps", "4", "driver", "regridEvery", "2",
	)}))
	must(t, f.Instantiate("RegionTally", "tally"))
	must(t, f.Disconnect("rk2", "patchRHS"))
	must(t, f.Connect("rk2", "patchRHS", "tally", "patchRHS"))
	must(t, f.Connect("tally", "inner", "inviscid", "patchRHS"))
	must(t, f.Go("driver", "go"))

	if tally.lines == 0 {
		t.Fatal("no region reached InviscidFlux")
	}
	for _, port := range []string{"states", "flux"} {
		wire := `instance="inviscid",port="` + port + `"`
		for _, h := range g.MergedSnapshot().Histograms {
			if strings.Contains(h.Name, wire) && h.Name != obs.PortCallName("inviscid", port, "Row") {
				t.Errorf("%s recorded a method other than Row: %s", port, h.Name)
			}
		}
		if n := hist(g, "inviscid", port, "Row").Count; n != uint64(tally.lines) {
			t.Errorf("inviscid/%s/Row calls = %d, want one per swept row and column (%d)", port, n, tally.lines)
		}
	}
}
