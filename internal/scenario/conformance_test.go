package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ccahydro/internal/components"
)

// TestSpecSelfConsistency checks every component spec against itself:
// the palette RegisterAll installs is exactly the spec list, each
// declared default parses as its kind and lies inside its own range or
// enum, ports are declared in name order, run-server metadata exists
// exactly for go-port providers, the duration knob names a declared
// int parameter, and the progress key is set.
func TestSpecSelfConsistency(t *testing.T) {
	if got := components.NewRepository().Classes(); fmt.Sprint(got) != fmt.Sprint(Classes()) {
		t.Fatalf("registered palette %v differs from the specs %v", got, Classes())
	}
	for _, class := range Classes() {
		s, _ := ClassInfo(class)
		for key, p := range s.Params {
			v := &validator{}
			v.checkParam(Pos{}, "x", s, class, key, p.Default)
			for _, d := range v.diags {
				t.Errorf("%s: declared default %q: %s", class, p.Default, d.Msg)
			}
		}
		for _, ports := range [][]components.PortDecl{s.Uses, s.Provides} {
			if !sort.SliceIsSorted(ports, func(i, j int) bool { return ports[i].Name < ports[j].Name }) {
				t.Errorf("%s: ports %v not in name order (diagnostics list them in spec order)", class, ports)
			}
		}
		if s.HasGo() != (s.Driver != nil) {
			t.Errorf("%s: go port %v but driver metadata %v", class, s.HasGo(), s.Driver)
		}
		if s.Driver == nil {
			continue
		}
		if d := s.Driver.DurationParam; d != "" && s.Params[d].Kind != components.KindInt {
			t.Errorf("%s: duration knob %q is not a declared int parameter", class, d)
		}
		if s.Driver.ProgressKey == "" {
			t.Errorf("%s: driver has no progress key", class)
		}
	}
}

// TestScenarioLibraryCompiles parse-validates every shipped scenario —
// the conformance gate for the scenarios/ library itself.
func TestScenarioLibraryCompiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.FromSlash("../../scenarios/*.scn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 7 {
		t.Fatalf("expected the full scenario library, found %d files", len(paths))
	}
	wantPoints := map[string]int{
		"ignition0d":        1,
		"flame2d":           1,
		"shockinterface":    1,
		"kelvin_helmholtz":  1,
		"richtmyer_meshkov": 3,
		"flux_sweep":        3,
		"ignition_batch":    6,
	}
	seen := map[string]bool{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(p, src)
		if err != nil {
			t.Errorf("%s does not validate:\n%v", p, err)
			continue
		}
		seen[c.Name] = true
		if want, ok := wantPoints[c.Name]; ok && c.SweepPoints() != want {
			t.Errorf("%s: %d sweep points, want %d", c.Name, c.SweepPoints(), want)
		}
	}
	for name := range wantPoints {
		if !seen[name] {
			t.Errorf("scenario %q missing from the library", name)
		}
	}
}
