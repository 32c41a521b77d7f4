package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestValidationDiagnostics pins the exact diagnostic text, position
// included, for every validation error class. These strings are the
// user interface of the scenario front-end; changing one is an
// observable break and must show up here.
func TestValidationDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "missing scenario and run",
			src:  "component a StatisticsComponent\n",
			want: []string{
				"t.scn:1:1: missing scenario declaration (want: scenario NAME)",
				"t.scn:1:1: scenario has no run statement",
			},
		},
		{
			name: "unknown class",
			src:  "scenario x\ncomponent a Bogus\nrun a\n",
			want: []string{
				`t.scn:2:13: unknown component class "Bogus"`,
			},
		},
		{
			name: "duplicate instance",
			src:  "scenario x\ncomponent a StatisticsComponent\ncomponent a StatisticsComponent\nrun a\n",
			want: []string{
				`t.scn:3:1: duplicate component instance "a" (first declared at t.scn:2:1)`,
				`t.scn:4:1: run target "a" (StatisticsComponent) does not provide a go port`,
			},
		},
		{
			name: "duplicate parameter",
			src:  "scenario x\ncomponent r ErrorEstAndRegrid { buffer = 2 buffer = 3 }\nrun r\n",
			want: []string{
				`t.scn:2:44: duplicate parameter "buffer" on component "r"`,
				`t.scn:3:1: run target "r" (ErrorEstAndRegrid) does not provide a go port`,
			},
		},
		{
			name: "connect unknown instances",
			src:  "scenario x\ncomponent s StatisticsComponent\nconnect a.ic -> b.stats\nrun s\n",
			want: []string{
				`t.scn:3:1: connect references unknown instance "a"`,
				`t.scn:3:17: connect references unknown instance "b"`,
				`t.scn:4:1: run target "s" (StatisticsComponent) does not provide a go port`,
			},
		},
		{
			name: "no such uses port",
			src:  "scenario x\ncomponent t StatisticsComponent\ncomponent s StatisticsComponent\nconnect s.timing -> t.stats\nrun t\n",
			want: []string{
				`t.scn:4:1: component "s" (StatisticsComponent) has no uses port "timing"`,
				`t.scn:5:1: run target "t" (StatisticsComponent) does not provide a go port`,
			},
		},
		{
			name: "no such provides port",
			src:  "scenario x\ncomponent t StatisticsComponent\ncomponent m DiffusionPhysics\nconnect m.chemistry -> t.clock\nrun t\n",
			want: []string{
				`t.scn:3:1: component "m" (DiffusionPhysics): required uses port "chemistry" (chem.SourceTermPort) is not connected`,
				`t.scn:3:1: component "m" (DiffusionPhysics): required uses port "transport" (transport.PropertiesPort) is not connected`,
				`t.scn:4:24: component "t" (StatisticsComponent) does not provide port "clock"`,
				`t.scn:5:1: run target "t" (StatisticsComponent) does not provide a go port`,
			},
		},
		{
			name: "port type mismatch",
			src:  "scenario x\ncomponent c ThermoChemistry\ncomponent d DPDt\nconnect d.chemistry -> c.properties\nrun d\n",
			want: []string{
				`t.scn:3:1: component "d" (DPDt): required uses port "chemistry" (chem.SourceTermPort) is not connected`,
				"t.scn:4:1: port type mismatch: d.chemistry uses chem.SourceTermPort but c.properties provides db.KeyValuePort",
				`t.scn:5:1: run target "d" (DPDt) does not provide a go port`,
			},
		},
		{
			name: "uses port connected twice",
			src:  "scenario x\ncomponent c ThermoChemistry\ncomponent d DPDt\nconnect d.chemistry -> c.chemistry\nconnect d.chemistry -> c.chemistry\nrun d\n",
			want: []string{
				"t.scn:5:1: uses port d.chemistry already connected (at t.scn:4:1)",
				`t.scn:6:1: run target "d" (DPDt) does not provide a go port`,
			},
		},
		{
			name: "run references unknown instance",
			src:  "scenario x\nrun ghost\n",
			want: []string{
				`t.scn:2:1: run references unknown instance "ghost"`,
			},
		},
		{
			name: "parameter errors",
			src: "scenario x\n" +
				"component g GrACEComponent { nx = lots }\n" +
				"component h GrACEComponent { nx = 2 }\n" +
				"component i GrACEComponent { lx = wide }\n" +
				"component j GrACEComponent { maxLevels = 99 }\n" +
				"component k ThermoChemistry { mech = argon }\n" +
				"component l CheckpointComponent { compress = perhaps }\n" +
				"component m GrACEComponent { color = red }\n" +
				"run g\n",
			want: []string{
				`t.scn:2:30: parameter g.nx: cannot parse "lots" as int`,
				"t.scn:3:30: parameter h.nx: value 2 out of range [4, 4096]",
				`t.scn:4:30: parameter i.lx: cannot parse "wide" as float`,
				"t.scn:5:30: parameter j.maxLevels: value 99 out of range [1, 8]",
				`t.scn:6:31: parameter k.mech: invalid value "argon" (want one of co-h2-air, co-h2-air-12sp-28rx, h2air, h2air-9sp-19rx, h2air-lite, h2air-lite-8sp-5rx)`,
				`t.scn:7:1: component "l" (CheckpointComponent): required uses port "mesh" (samr.MeshPort) is not connected`,
				`t.scn:7:35: parameter l.compress: cannot parse "perhaps" as bool`,
				`t.scn:8:30: component "m" (GrACEComponent) has no parameter "color"`,
				`t.scn:9:1: run target "g" (GrACEComponent) does not provide a go port`,
			},
		},
		{
			name: "sweep unknown instance",
			src:  "scenario x\ncomponent s StatisticsComponent\nrun s\nsweep {\n    param q.tEnd = [1]\n}\n",
			want: []string{
				`t.scn:3:1: run target "s" (StatisticsComponent) does not provide a go port`,
				`t.scn:5:5: sweep references unknown instance "q"`,
			},
		},
		{
			name: "sweep class incompatible",
			src: miniScenario +
				"sweep {\n    class cvode = [StatisticsComponent]\n}\n",
			want: []string{
				`t.scn:21:20: sweep class "StatisticsComponent" for "cvode" has no uses port "rhs" (wired at t.scn:14:1)`,
				`t.scn:21:20: sweep class "StatisticsComponent" for "cvode" does not provide port "integrator" (wired at t.scn:16:1)`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile("t.scn", []byte(tc.src))
			if err == nil {
				t.Fatal("compiled without error")
			}
			var got []string
			for _, d := range Diags(err) {
				got = append(got, d.Error())
			}
			if len(got) != len(tc.want) {
				t.Fatalf("diagnostics:\n got: %s\nwant: %s",
					strings.Join(got, "\n      "), strings.Join(tc.want, "\n      "))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("diag %d:\n got  %s\n want %s", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestSweepPointCap: the cartesian product is bounded at parse time.
func TestSweepPointCap(t *testing.T) {
	var b strings.Builder
	b.WriteString(miniScenario)
	b.WriteString("sweep {\n    param driver.tEnd = [")
	for i := 0; i < 23; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("1e-4")
	}
	b.WriteString("]\n    param driver.nOut = [")
	for i := 0; i < 23; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i+1)
	}
	b.WriteString("]\n}\n")
	_, err := Compile("t.scn", []byte(b.String()))
	if err == nil {
		t.Fatal("529-point sweep compiled")
	}
	want := "t.scn:20:1: sweep expands to more than 512 points"
	ds := Diags(err)
	if len(ds) != 1 || ds[0].Error() != want {
		t.Fatalf("got %v, want exactly [%s]", err, want)
	}
}
