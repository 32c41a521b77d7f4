package components

import (
	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
)

// The paper's future work item (1) includes "an effort to define
// interfaces to load-balancers prior to testing a number of them."
// BalancerPort is that interface, and BalancerComponent packages the
// repository's balancers behind it so a mesh can be rewired to a
// different distribution policy without recompilation — the same
// swap-a-component move as GodunovFlux -> EFMFlux.

// BalancerPortType identifies load-balancer provides ports.
const BalancerPortType = "samr.LoadBalancerPort"

// BalancerPort assigns patches to ranks.
type BalancerPort interface {
	amr.LoadBalancer
	// PolicyName identifies the active policy.
	PolicyName() string
}

// BalancerComponent provides a BalancerPort. The "policy" parameter
// selects "greedy" (LPT bin packing, the default) or "sfc" (Morton
// space-filling-curve segments).
type BalancerComponent struct {
	policy string
	inner  amr.LoadBalancer
}

var balancerSpec = &Spec{
	Class: "BalancerComponent", New: func() cca.Component { return &BalancerComponent{} },
	Params:   map[string]Param{"policy": eparam("greedy", "greedy", "sfc")},
	Provides: []PortDecl{prov("balancer", BalancerPortType)},
}

// SetServices implements cca.Component.
func (bc *BalancerComponent) SetServices(svc cca.Services) error {
	bc.policy = balancerSpec.Str(svc.Parameters(), "policy")
	switch bc.policy {
	case "sfc":
		bc.inner = amr.SFCBalancer{}
	default:
		bc.policy = "greedy"
		bc.inner = amr.GreedyBalancer{}
	}
	return balancerSpec.register(svc, bc)
}

// Assign implements amr.LoadBalancer.
func (bc *BalancerComponent) Assign(boxes []amr.Box, level, nranks int, work amr.Workload) []int {
	return bc.inner.Assign(boxes, level, nranks, work)
}

// PolicyName implements BalancerPort.
func (bc *BalancerComponent) PolicyName() string { return bc.policy }
