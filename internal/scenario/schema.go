package scenario

import (
	"sort"

	"ccahydro/internal/components"
)

// The static truth the validator checks scenarios against is the
// component specs: each class in internal/components declares its
// parameters (types, defaults, legal ranges), its uses and provides
// ports, and — for drivers — the run-server metadata, once, beside the
// SetServices that registers those same ports. Reading a spec builds
// nothing, so a scenario is rejected with a position before a single
// component is instantiated, and the validator cannot drift from what
// the components register.

// ClassInfo returns the spec of a class name.
func ClassInfo(name string) (*components.Spec, bool) { return components.SpecFor(name) }

// Classes returns the known class names, sorted.
func Classes() []string {
	specs := components.Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Class
	}
	sort.Strings(out)
	return out
}

// DefaultParam returns a class parameter's default value.
func DefaultParam(class, key string) (string, bool) {
	s, ok := components.SpecFor(class)
	if !ok {
		return "", false
	}
	p, ok := s.Params[key]
	return p.Default, ok
}
