package cca

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ccahydro/internal/mpi"
)

// ---- test fixtures ----------------------------------------------------

// addPort is a toy domain port.
type addPort interface {
	Add(a, b float64) float64
}

// adder provides addPort.
type adder struct {
	calls int
}

func (a *adder) SetServices(svc Services) error {
	return svc.AddProvidesPort(a, "sum", "test.AddPort")
}

func (a *adder) Add(x, y float64) float64 {
	a.calls++
	return x + y
}

// client uses addPort and provides a GoPort that exercises it.
type client struct {
	svc    Services
	result float64
}

func (c *client) SetServices(svc Services) error {
	c.svc = svc
	if err := svc.RegisterUsesPort("calc", "test.AddPort"); err != nil {
		return err
	}
	return svc.AddProvidesPort(goFunc(c.run), "go", GoPortType)
}

func (c *client) run() error {
	p, err := c.svc.GetPort("calc")
	if err != nil {
		return err
	}
	defer c.svc.ReleasePort("calc")
	c.result = p.(addPort).Add(2, c.svc.Parameters().GetFloat("addend", 1))
	return nil
}

// goFunc adapts a func to GoPort.
type goFunc func() error

func (g goFunc) Go() error { return g() }

func testRepo() *Repository {
	repo := NewRepository()
	repo.Register("Adder", func() Component { return &adder{} })
	repo.Register("Client", func() Component { return &client{} })
	return repo
}

// ---- framework semantics ----------------------------------------------

func TestInstantiateConnectGo(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	if err := f.Instantiate("Adder", "a"); err != nil {
		t.Fatal(err)
	}
	if err := f.Instantiate("Client", "c"); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("c", "calc", "a", "sum"); err != nil {
		t.Fatal(err)
	}
	if err := f.Go("c", "go"); err != nil {
		t.Fatal(err)
	}
	comp, _ := f.Lookup("c")
	if got := comp.(*client).result; got != 3 {
		t.Errorf("result = %v, want 3", got)
	}
}

func TestUnknownClass(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	if err := f.Instantiate("Nope", "x"); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("err = %v, want ErrUnknownClass", err)
	}
}

func TestDuplicateInstanceName(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	if err := f.Instantiate("Adder", "a"); err != nil {
		t.Fatal(err)
	}
	if err := f.Instantiate("Adder", "a"); !errors.Is(err, ErrInstanceExists) {
		t.Errorf("err = %v, want ErrInstanceExists", err)
	}
}

func TestConnectTypeMismatch(t *testing.T) {
	repo := testRepo()
	repo.Register("WrongType", func() Component {
		return componentFunc(func(svc Services) error {
			return svc.AddProvidesPort(goFunc(func() error { return nil }), "sum", "test.OtherPort")
		})
	})
	f := NewFramework(repo, nil)
	mustOK(t, f.Instantiate("WrongType", "w"))
	mustOK(t, f.Instantiate("Client", "c"))
	if err := f.Connect("c", "calc", "w", "sum"); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("err = %v, want ErrTypeMismatch", err)
	}
}

type componentFunc func(Services) error

func (c componentFunc) SetServices(svc Services) error { return c(svc) }

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestConnectUnknownPortsAndInstances(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Client", "c"))
	if err := f.Connect("zzz", "calc", "a", "sum"); !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("unknown user: %v", err)
	}
	if err := f.Connect("c", "nope", "a", "sum"); !errors.Is(err, ErrPortNotFound) {
		t.Errorf("unknown uses port: %v", err)
	}
	if err := f.Connect("c", "calc", "a", "nope"); !errors.Is(err, ErrPortNotFound) {
		t.Errorf("unknown provides port: %v", err)
	}
}

func TestDoubleConnectRejected(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Adder", "a2"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	if err := f.Connect("c", "calc", "a2", "sum"); !errors.Is(err, ErrAlreadyConnected) {
		t.Errorf("err = %v, want ErrAlreadyConnected", err)
	}
}

func TestGetPortBeforeConnect(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Client", "c"))
	if err := f.Go("c", "go"); !errors.Is(err, ErrPortNotConnected) {
		t.Errorf("err = %v, want ErrPortNotConnected", err)
	}
}

func TestDisconnectAndReconnect(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Adder", "b"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	mustOK(t, f.Go("c", "go")) // fetch+release, so disconnect is legal
	mustOK(t, f.Disconnect("c", "calc"))
	// The paper's EFMFlux-for-GodunovFlux swap: reconnect to another provider.
	mustOK(t, f.Connect("c", "calc", "b", "sum"))
	mustOK(t, f.Go("c", "go"))
	ca, _ := f.Lookup("a")
	cb, _ := f.Lookup("b")
	if ca.(*adder).calls != 1 || cb.(*adder).calls != 1 {
		t.Errorf("calls a=%d b=%d, want 1 and 1", ca.(*adder).calls, cb.(*adder).calls)
	}
}

func TestDisconnectWhileFetched(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	comp, _ := f.Lookup("c")
	cl := comp.(*client)
	if _, err := cl.svc.GetPort("calc"); err != nil {
		t.Fatal(err)
	}
	if err := f.Disconnect("c", "calc"); !errors.Is(err, ErrPortInUse) {
		t.Errorf("err = %v, want ErrPortInUse", err)
	}
	cl.svc.ReleasePort("calc")
	mustOK(t, f.Disconnect("c", "calc"))
}

func TestGoOnNonGoPort(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	if err := f.Go("a", "sum"); !errors.Is(err, ErrNotGoPort) {
		t.Errorf("err = %v, want ErrNotGoPort", err)
	}
}

func TestDuplicatePortRegistration(t *testing.T) {
	repo := NewRepository()
	repo.Register("DupProvides", func() Component {
		return componentFunc(func(svc Services) error {
			if err := svc.AddProvidesPort(goFunc(nil), "p", "t"); err != nil {
				return err
			}
			return svc.AddProvidesPort(goFunc(nil), "p", "t")
		})
	})
	f := NewFramework(repo, nil)
	if err := f.Instantiate("DupProvides", "d"); !errors.Is(err, ErrPortExists) {
		t.Errorf("err = %v, want ErrPortExists", err)
	}
}

func TestParametersStagedBeforeInstantiate(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.SetParameter("c", "addend", "40"))
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	mustOK(t, f.Go("c", "go"))
	comp, _ := f.Lookup("c")
	if got := comp.(*client).result; got != 42 {
		t.Errorf("result = %v, want 42", got)
	}
}

func TestIntrospection(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	if got := f.Instances(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("Instances = %v", got)
	}
	class, err := f.ClassOf("a")
	if err != nil || class != "Adder" {
		t.Errorf("ClassOf = %q, %v", class, err)
	}
	conns := f.Connections()
	if len(conns) != 1 || conns[0].User != "c" || conns[0].Provider != "a" {
		t.Errorf("Connections = %+v", conns)
	}
	prov, _ := f.ProvidedPorts("a")
	if len(prov) != 1 || prov[0][0] != "sum" || prov[0][1] != "test.AddPort" {
		t.Errorf("ProvidedPorts = %v", prov)
	}
	uses, _ := f.UsesPorts("c")
	if len(uses) != 1 || uses[0][0] != "calc" {
		t.Errorf("UsesPorts = %v", uses)
	}
}

// ---- repository ---------------------------------------------------------

func TestRepositoryClassesSorted(t *testing.T) {
	r := testRepo()
	got := r.Classes()
	if len(got) != 2 || got[0] != "Adder" || got[1] != "Client" {
		t.Errorf("Classes = %v", got)
	}
	if !r.Has("Adder") || r.Has("Nope") {
		t.Error("Has misbehaves")
	}
}

func TestRepositoryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate registration")
		}
	}()
	r := NewRepository()
	r.Register("X", func() Component { return &adder{} })
	r.Register("X", func() Component { return &adder{} })
}

// ---- typemap ------------------------------------------------------------

func TestTypeMapRoundTrips(t *testing.T) {
	tm := NewTypeMap()
	tm.SetString("f", "3.25")
	tm.SetString("i", "-7")
	tm.SetString("b", "true")
	tm.SetString("s", "hello")
	if tm.GetFloat("f", 0) != 3.25 || tm.GetInt("i", 0) != -7 || !tm.GetBool("b", false) || tm.GetString("s", "") != "hello" {
		t.Errorf("round trip failed: %v", tm)
	}
	// Defaults on missing/malformed.
	if tm.GetFloat("missing", 9) != 9 || tm.GetInt("s", 5) != 5 || tm.GetBool("s", true) != true {
		t.Error("defaults not honored")
	}
	if tm.Len() != 4 || !tm.Has("f") || tm.Has("zz") {
		t.Error("Len/Has wrong")
	}
	keys := tm.Keys()
	want := []string{"b", "f", "i", "s"}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("Keys = %v", keys)
		}
	}
	if s := tm.String(); !strings.Contains(s, "f=3.25") {
		t.Errorf("String = %q", s)
	}
}

func TestTypeMapScriptValuesRoundTrip(t *testing.T) {
	// Script parameters arrive as strings; typed getters must parse them.
	tm := NewTypeMap()
	tm.SetString("n", "128")
	tm.SetString("dt", "1e-7")
	tm.SetString("on", "true")
	if tm.GetInt("n", 0) != 128 || tm.GetFloat("dt", 0) != 1e-7 || !tm.GetBool("on", false) {
		t.Error("string-typed values failed to parse")
	}
}

// ---- script ------------------------------------------------------------

const demoScript = `
#!ccaffeine bootstrap file
repository get-global Adder
repository get-global Client
instantiate Adder a
instantiate Client c
parameter c addend 5
connect c calc a sum
go c go
quit
`

func TestScriptExecute(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	s, err := ParseScriptString(demoScript)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Execute(f); err != nil {
		t.Fatal(err)
	}
	comp, _ := f.Lookup("c")
	if got := comp.(*client).result; got != 7 {
		t.Errorf("result = %v, want 7", got)
	}
}

func TestScriptParseErrors(t *testing.T) {
	cases := []string{
		"frobnicate a b",
		"instantiate OnlyOneArg",
		"connect a b c",
		"repository delete X",
		"go onlyinstance",
	}
	for _, src := range cases {
		if _, err := ParseScriptString(src); err == nil {
			t.Errorf("ParseScriptString(%q) succeeded, want error", src)
		}
	}
}

func TestScriptQuitStopsExecution(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	s, err := ParseScriptString("instantiate Adder a\nquit\ninstantiate Nope x\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Execute(f); err != nil {
		t.Errorf("commands after quit must not run: %v", err)
	}
}

func TestScriptExecuteErrorCarriesLine(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	s, err := ParseScriptString("instantiate Adder a\ninstantiate Missing m\n")
	if err != nil {
		t.Fatal(err)
	}
	execErr := s.Execute(f)
	if execErr == nil || !strings.Contains(execErr.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 mention", execErr)
	}
}

func TestArenaRendering(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	arena := Arena(f)
	for _, want := range []string{"component a (class Adder)", "provides sum", "uses     calc", "c.calc -> a.sum"} {
		if !strings.Contains(arena, want) {
			t.Errorf("arena missing %q:\n%s", want, arena)
		}
	}
}

// ---- SCMD ---------------------------------------------------------------

// cohortComp exercises cohort communication: each rank contributes its
// rank and checks the allreduced sum.
type cohortComp struct {
	svc Services
	sum float64
}

func (c *cohortComp) SetServices(svc Services) error {
	c.svc = svc
	return svc.AddProvidesPort(goFunc(c.run), "go", GoPortType)
}

func (c *cohortComp) run() error {
	comm := c.svc.Comm()
	c.sum = comm.AllreduceScalar(mpi.OpSum, float64(comm.Rank()))
	return nil
}

func TestRunScriptSCMD(t *testing.T) {
	repo := NewRepository()
	var mu sync.Mutex
	sums := map[int]float64{}
	repo.Register("Cohort", func() Component { return &cohortComp{} })
	repo.Register("Probe", func() Component {
		return componentFunc(func(svc Services) error { return nil })
	})
	script := "instantiate Cohort w\ngo w go\n"
	// Wrap via RunSCMD to capture results per rank.
	res := RunSCMD(4, mpi.ZeroModel, repo, func(f *Framework, comm *mpi.Comm) error {
		s, err := ParseScriptString(script)
		if err != nil {
			return err
		}
		if err := s.Execute(f); err != nil {
			return err
		}
		comp, _ := f.Lookup("w")
		mu.Lock()
		sums[comm.Rank()] = comp.(*cohortComp).sum
		mu.Unlock()
		return nil
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if sums[r] != 6 { // 0+1+2+3
			t.Errorf("rank %d sum = %v, want 6", r, sums[r])
		}
	}
}

func TestRunScriptSCMDParsesOnce(t *testing.T) {
	repo := NewRepository()
	repo.Register("Cohort", func() Component { return &cohortComp{} })
	// One parsed script drives every rank's framework.
	script, err := ParseScriptString("instantiate Cohort w\ngo w go\nquit\n")
	if err != nil {
		t.Fatal(err)
	}
	res := RunSCMD(3, mpi.ZeroModel, repo, func(f *Framework, _ *mpi.Comm) error {
		return script.Execute(f)
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.MaxVirtualTime() < 0 {
		t.Error("negative virtual time")
	}
}

func TestSCMDRankErrorSurfaces(t *testing.T) {
	repo := NewRepository()
	res := RunSCMD(2, mpi.ZeroModel, repo, func(f *Framework, comm *mpi.Comm) error {
		if comm.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	err := res.Err()
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("err = %v", err)
	}
}

func TestDestroyInstance(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	// Destroying a connected provider is refused.
	if err := f.Destroy("a"); err == nil {
		t.Fatal("destroyed a connected provider")
	}
	mustOK(t, f.Disconnect("c", "calc"))
	mustOK(t, f.Destroy("a"))
	if _, err := f.ClassOf("a"); !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("a still present: %v", err)
	}
	if got := f.Instances(); len(got) != 1 || got[0] != "c" {
		t.Errorf("instances = %v", got)
	}
	// Unknown instance.
	if err := f.Destroy("zzz"); !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("err = %v", err)
	}
	// Name is reusable after destroy.
	mustOK(t, f.Instantiate("Adder", "a"))
}

func TestScriptDestroyCommand(t *testing.T) {
	f := NewFramework(testRepo(), nil)
	s, err := ParseScriptString("instantiate Adder a\ninstantiate Adder b\ndestroy b\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Execute(f); err != nil {
		t.Fatal(err)
	}
	if got := f.Instances(); len(got) != 1 {
		t.Errorf("instances = %v", got)
	}
}
