package components

import (
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
)

func TestBalancerComponentPolicies(t *testing.T) {
	for _, policy := range []string{"greedy", "sfc", "unknown"} {
		f := cca.NewFramework(NewRepository(), nil)
		mustDo(t, f.SetParameter("bal", "policy", policy))
		mustDo(t, f.Instantiate("BalancerComponent", "bal"))
		comp, _ := f.Lookup("bal")
		bc := comp.(*BalancerComponent)
		want := policy
		if policy == "unknown" {
			want = "greedy"
		}
		if bc.PolicyName() != want {
			t.Errorf("policy %q resolved to %q", policy, bc.PolicyName())
		}
		boxes := []amr.Box{amr.NewBox(0, 0, 7, 7), amr.NewBox(8, 0, 15, 7)}
		owners := bc.Assign(boxes, 0, 2, nil)
		if len(owners) != 2 {
			t.Errorf("owners = %v", owners)
		}
	}
}

// TestGrACEUsesWiredBalancer checks the future-work wiring: a mesh
// regrid consults the connected balancer component.
func TestGrACEUsesWiredBalancer(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("grace", "nx", "32"))
		mustDo(t, f.SetParameter("grace", "ny", "32"))
		mustDo(t, f.SetParameter("grace", "maxLevels", "2"))
		mustDo(t, f.SetParameter("bal", "policy", "sfc"))
		mustDo(t, f.Instantiate("GrACEComponent", "grace"))
		mustDo(t, f.Instantiate("BalancerComponent", "bal"))
		mustDo(t, f.Connect("grace", "balancer", "bal", "balancer"))
	})
	comp, _ := f.Lookup("grace")
	gc := comp.(*GrACEComponent)
	gc.Declare("phi", 1, 2)
	flags := amr.NewFlagField(gc.Hierarchy().LevelDomain(0))
	flags.SetBox(amr.NewBox(4, 4, 27, 27))
	gc.Regrid([]*amr.FlagField{flags}, amr.RegridOptions{})
	h := gc.Hierarchy()
	if h.NumLevels() != 2 {
		t.Fatalf("levels = %d", h.NumLevels())
	}
	if _, ok := h.Balancer.(BalancerPort); !ok {
		t.Errorf("hierarchy balancer = %T, want the wired component", h.Balancer)
	}
}
