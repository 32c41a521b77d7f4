package cca

import (
	"testing"
	"time"

	"ccahydro/internal/obs"
)

// wrappedAdder is the instrumented proxy for test.AddPort, registered
// the way internal/components registers the real domain proxies.
type wrappedAdder struct {
	inner addPort
	hist  *obs.Histogram
}

func (w *wrappedAdder) Add(a, b float64) float64 {
	t0 := time.Now()
	defer func() { w.hist.ObserveNs(int64(time.Since(t0))) }()
	return w.inner.Add(a, b)
}

func init() {
	RegisterPortWrapper("test.AddPort", func(o *obs.Obs, instance, portName string, inner Port) Port {
		ap, ok := inner.(addPort)
		if !ok {
			return nil
		}
		return &wrappedAdder{inner: ap, hist: o.PortHistogram(instance, portName, "Add")}
	})
}

func findHist(s obs.Snapshot, name string) *obs.HistogramSnapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

func obsFixture(t *testing.T) (*Framework, *client, *adder) {
	t.Helper()
	f := NewFramework(testRepo(), nil)
	mustOK(t, f.Instantiate("Adder", "a"))
	mustOK(t, f.Instantiate("Client", "c"))
	mustOK(t, f.Connect("c", "calc", "a", "sum"))
	cc, _ := f.Lookup("c")
	ca, _ := f.Lookup("a")
	return f, cc.(*client), ca.(*adder)
}

func TestGetPortRawWithoutObservability(t *testing.T) {
	_, cl, ad := obsFixture(t)
	p, err := cl.svc.GetPort("calc")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.svc.ReleasePort("calc")
	// Disabled observability must hand back the provider port itself,
	// not a proxy: the wire costs exactly one interface call.
	if _, proxied := p.(*wrappedAdder); proxied {
		t.Fatal("GetPort returned a proxy with observability off")
	}
	if p.(addPort).Add(1, 2) != 3 || ad.calls != 1 {
		t.Errorf("raw port miswired: calls=%d", ad.calls)
	}
}

func TestGetPortWrapsAndRecords(t *testing.T) {
	f, cl, ad := obsFixture(t)
	session := obs.NewGroup(1).Rank(0)
	f.SetObservability(session)

	p, err := cl.svc.GetPort("calc")
	if err != nil {
		t.Fatal(err)
	}
	if _, proxied := p.(*wrappedAdder); !proxied {
		t.Fatal("GetPort did not return the registered proxy")
	}
	const n = 5
	for i := 0; i < n; i++ {
		if got := p.(addPort).Add(float64(i), 1); got != float64(i)+1 {
			t.Fatalf("Add(%d,1) = %v through proxy", i, got)
		}
	}
	cl.svc.ReleasePort("calc")
	if ad.calls != n {
		t.Errorf("provider saw %d calls, want %d", ad.calls, n)
	}
	h := findHist(session.Metrics().Snapshot(), obs.PortCallName("c", "calc", "Add"))
	if h == nil {
		t.Fatal("no port_call histogram in snapshot")
	}
	if h.Count != n {
		t.Errorf("histogram count = %d, want %d", h.Count, n)
	}
}

func TestProxyCachedPerWire(t *testing.T) {
	f, cl, _ := obsFixture(t)
	f.SetObservability(obs.NewGroup(1).Rank(0))
	p1, err := cl.svc.GetPort("calc")
	mustOK(t, err)
	cl.svc.ReleasePort("calc")
	p2, err := cl.svc.GetPort("calc")
	mustOK(t, err)
	cl.svc.ReleasePort("calc")
	// Repeated fetches of the same wire must not allocate fresh proxies.
	if p1 != p2 {
		t.Error("proxy not cached across GetPort calls")
	}
}

func TestProxyInvalidatedOnReconnect(t *testing.T) {
	f, cl, _ := obsFixture(t)
	f.SetObservability(obs.NewGroup(1).Rank(0))
	p1, err := cl.svc.GetPort("calc")
	mustOK(t, err)
	cl.svc.ReleasePort("calc")

	mustOK(t, f.Instantiate("Adder", "b"))
	mustOK(t, f.Disconnect("c", "calc"))
	mustOK(t, f.Connect("c", "calc", "b", "sum"))
	p2, err := cl.svc.GetPort("calc")
	mustOK(t, err)
	cl.svc.ReleasePort("calc")
	if p1 == p2 {
		t.Error("proxy survived a rewire; it still targets the old provider")
	}
	cb, _ := f.Lookup("b")
	p2.(addPort).Add(1, 1)
	if cb.(*adder).calls != 1 {
		t.Error("rewired proxy does not reach the new provider")
	}
}

func TestProxyInvalidatedOnSessionChange(t *testing.T) {
	f, cl, _ := obsFixture(t)
	f.SetObservability(obs.NewGroup(1).Rank(0))
	p1, err := cl.svc.GetPort("calc")
	mustOK(t, err)
	cl.svc.ReleasePort("calc")

	// Detach: the raw port comes back.
	f.SetObservability(nil)
	p2, err := cl.svc.GetPort("calc")
	mustOK(t, err)
	cl.svc.ReleasePort("calc")
	if _, proxied := p2.(*wrappedAdder); proxied {
		t.Error("detached session still yields proxies")
	}

	// Re-attach a fresh session: a new proxy bound to its registry.
	g2 := obs.NewGroup(1)
	f.SetObservability(g2.Rank(0))
	p3, err := cl.svc.GetPort("calc")
	mustOK(t, err)
	cl.svc.ReleasePort("calc")
	if p3 == p1 {
		t.Error("proxy from a previous session was reused")
	}
	p3.(addPort).Add(2, 2)
	if h := findHist(g2.MergedSnapshot(), obs.PortCallName("c", "calc", "Add")); h == nil || h.Count != 1 {
		t.Error("new session's registry did not record the call")
	}
}

func TestUnregisteredPortTypePassesThrough(t *testing.T) {
	repo := testRepo()
	repo.Register("Exotic", func() Component {
		return componentFunc(func(svc Services) error {
			return svc.AddProvidesPort(goFunc(func() error { return nil }), "p", "test.ExoticPort")
		})
	})
	repo.Register("ExoticUser", func() Component {
		return componentFunc(func(svc Services) error {
			return svc.RegisterUsesPort("u", "test.ExoticPort")
		})
	})
	f := NewFramework(repo, nil)
	f.SetObservability(obs.NewGroup(1).Rank(0))
	mustOK(t, f.Instantiate("Exotic", "e"))
	mustOK(t, f.Instantiate("ExoticUser", "eu"))
	mustOK(t, f.Connect("eu", "u", "e", "p"))
	in := f.instances["eu"]
	p, err := in.GetPort("u")
	mustOK(t, err)
	in.ReleasePort("u")
	if _, ok := p.(goFunc); !ok {
		t.Error("unregistered port type was not passed through unwrapped")
	}
}

func TestServicesObservabilityAccessor(t *testing.T) {
	f, cl, _ := obsFixture(t)
	if cl.svc.Observability() != nil {
		t.Error("Observability non-nil before attach")
	}
	session := obs.NewGroup(1).Rank(0)
	f.SetObservability(session)
	if cl.svc.Observability() != session {
		t.Error("Observability does not surface the attached session")
	}
}

// TestRegisterPortWrapperPanicsOnDuplicate: a second wrapper for an
// already wrapped port type is refused loudly, and the first stays in
// force.
func TestRegisterPortWrapperPanicsOnDuplicate(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate RegisterPortWrapper did not panic")
			}
		}()
		RegisterPortWrapper("test.AddPort", func(*obs.Obs, string, string, Port) Port { return nil })
	}()
	f, cl, _ := obsFixture(t)
	f.SetObservability(obs.NewGroup(1).Rank(0))
	p, err := cl.svc.GetPort("calc")
	if err != nil {
		t.Fatal(err)
	}
	if _, proxied := p.(*wrappedAdder); !proxied {
		t.Errorf("GetPort returned %T, want the first registered proxy", p)
	}
}
