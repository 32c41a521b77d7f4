package cca_test

import (
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
)

// unwrapped names the port types deliberately passed through raw with
// observability attached: the go port (the driver entry point),
// MeshPort (drivers downcast it to the concrete mesh), ExecutionPort
// (the pool's identity matters), and the checkpoint and load-balancer
// plumbing.
var unwrapped = map[string]bool{
	cca.GoPortType:                true,
	components.MeshPortType:       true,
	components.ExecutionPortType:  true,
	components.CheckpointPortType: true,
	components.BalancerPortType:   true,
}

// TestEveryProvidedPortTypeIsWrapped: every port type a palette class
// provides has an interceptor proxy, unless it is on the unwrapped
// list — so a new port type cannot silently escape port-call timing,
// and the list cannot keep a type that has since gained a proxy.
func TestEveryProvidedPortTypeIsWrapped(t *testing.T) {
	provided := map[string]string{}
	for _, s := range components.Specs() {
		for _, p := range s.Provides {
			provided[p.Type] = s.Class
		}
	}
	for typ, class := range provided {
		if !unwrapped[typ] && !cca.HasPortWrapper(typ) {
			t.Errorf("port type %q (provided by %s) has no interceptor proxy", typ, class)
		}
	}
	for typ := range unwrapped {
		if _, ok := provided[typ]; !ok {
			t.Errorf("unwrapped list names %q, which no class provides", typ)
		}
		if cca.HasPortWrapper(typ) {
			t.Errorf("port type %q is on the unwrapped list but has a proxy", typ)
		}
	}
}
