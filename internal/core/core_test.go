package core

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/euler"
	"ccahydro/internal/mpi"
)

// ---- 0D ignition (paper Sec. 4.1, Table 1) --------------------------------

func TestIgnition0DEndToEnd(t *testing.T) {
	dr, err := RunIgnition0D(
		Param{"driver", "tEnd", "1e-3"},
		Param{"driver", "nOut", "40"},
	)
	if err != nil {
		t.Fatal(err)
	}
	tFinal := dr.Temps[len(dr.Temps)-1]
	pFinal := dr.Pressures[len(dr.Pressures)-1]
	// Stoichiometric H2-air at 1000 K / 1 atm in a rigid vessel must
	// ignite within 1 ms and reach the constant-volume adiabatic flame
	// temperature (~2900 K) with a ~2.5-3x pressure rise.
	if tFinal < 2500 || tFinal > 3300 {
		t.Errorf("final T = %v, want ~2900", tFinal)
	}
	if pFinal < 2.0*101325 || pFinal > 3.5*101325 {
		t.Errorf("final P = %v, want ~2.6 atm", pFinal)
	}
	if dr.IgnitionDelay < 1e-5 || dr.IgnitionDelay > 8e-4 {
		t.Errorf("ignition delay = %v, want O(0.1 ms)", dr.IgnitionDelay)
	}
	// Temperature trajectory is monotone after ignition (no ringing).
	for i := 2; i < len(dr.Temps); i++ {
		if dr.Temps[i] < dr.Temps[i-1]-2 {
			t.Errorf("T dropped at sample %d: %v -> %v", i, dr.Temps[i-1], dr.Temps[i])
		}
	}
}

func TestIgnition0DColdNoIgnition(t *testing.T) {
	dr, err := RunIgnition0D(
		Param{"driver", "tEnd", "1e-4"},
		Param{"driver", "nOut", "5"},
		Param{"init", "T0", "600"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if dT := dr.Temps[len(dr.Temps)-1] - 600; dT > 50 {
		t.Errorf("600 K mixture ignited within 0.1 ms (dT=%v); it should not", dT)
	}
}

// nOut = 50 was the driver's default output cadence that the ignition
// scenario could not use: the cold restart at t = 2.2e-4, inside the
// stiff ignition front, estimated a first step below CVODE's step
// floor and failed with a step-size underflow. The restart now starts
// from the floor.
func TestIgnition0DNOut50Completes(t *testing.T) {
	dr, err := RunIgnition0D(Param{"driver", "nOut", "50"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dr.Temps); n != 51 {
		t.Fatalf("%d samples, want 51", n)
	}
}

// Every output cadence from 1 to 100 integrates to tEnd, and the final
// state does not depend on it beyond the solver tolerance: each output
// time is a cold restart, so the runs differ by restart error only.
// The bound is 10·rtol relative on the final T and P (the spread seen
// is at most 0.4·rtol).
func TestIgnition0DOutputCadenceSweep(t *testing.T) {
	const rtol = 1e-8
	run := func(nOut int) (T, P float64) {
		t.Helper()
		dr, err := RunIgnition0D(
			Param{"cvode", "rtol", strconv.FormatFloat(rtol, 'g', -1, 64)},
			Param{"driver", "nOut", strconv.Itoa(nOut)},
		)
		if err != nil {
			t.Fatalf("nOut=%d: %v", nOut, err)
		}
		return dr.Temps[len(dr.Temps)-1], dr.Pressures[len(dr.Pressures)-1]
	}
	T1, P1 := run(1)
	for nOut := 2; nOut <= 100; nOut++ {
		T, P := run(nOut)
		if d := math.Abs(T-T1) / T1; d > 10*rtol {
			t.Errorf("nOut=%d: final T %.12g differs from nOut=1's %.12g by %.2g relative", nOut, T, T1, d)
		}
		if d := math.Abs(P-P1) / P1; d > 10*rtol {
			t.Errorf("nOut=%d: final P %.12g differs from nOut=1's %.12g by %.2g relative", nOut, P, P1, d)
		}
	}
}

func TestArenaShowsAssembly(t *testing.T) {
	f := cca.NewFramework(Repo(), nil)
	if err := AssembleRequest(f, RunRequest{Problem: "ignition"}); err != nil {
		t.Fatal(err)
	}
	arena := cca.Arena(f)
	for _, want := range []string{"ThermoChemistry", "cvode.rhs -> model.rhs", "driver.integrator -> cvode.integrator"} {
		if !strings.Contains(arena, want) {
			t.Errorf("arena missing %q", want)
		}
	}
}

// ---- 2D reaction-diffusion (paper Sec. 4.2, Table 2) ----------------------

func rdParams(extra ...Param) []Param {
	base := []Param{
		{"grace", "nx", "24"}, {"grace", "ny", "24"},
		{"grace", "maxLevels", "2"},
		{"driver", "steps", "2"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "1"},
	}
	return append(base, extra...)
}

func TestReactionDiffusionEndToEnd(t *testing.T) {
	dr, f, err := RunReactionDiffusion(nil, rdParams()...)
	if err != nil {
		t.Fatal(err)
	}
	// Hot spots present: Tmax well above ambient, Tmin at ambient.
	if dr.TMax < 1500 {
		t.Errorf("Tmax = %v, want hot spots ~1800", dr.TMax)
	}
	if math.Abs(dr.TMin-300) > 20 {
		t.Errorf("Tmin = %v, want ~300", dr.TMin)
	}
	// AMR refined around the hot spots.
	comp, _ := f.Lookup("grace")
	h := comp.(*components.GrACEComponent).Hierarchy()
	if h.NumLevels() < 2 {
		t.Errorf("levels = %d, want refinement around hot spots", h.NumLevels())
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Errorf("hierarchy invariants violated: %v", err)
	}
	if len(dr.StepSeconds) != 2 {
		t.Errorf("step records = %d", len(dr.StepSeconds))
	}
}

// flame16 runs the flame built-in on a 16×16 coarse mesh at macro step dt.
func flame16(t *testing.T, dt float64) {
	t.Helper()
	_, _, err := RunReactionDiffusion(nil,
		Param{"grace", "nx", "16"}, Param{"grace", "ny", "16"},
		Param{"driver", "dt", strconv.FormatFloat(dt, 'g', -1, 64)})
	if err != nil {
		t.Fatalf("dt = %v: %v", dt, err)
	}
}

// At dt = 1.02e-7 a cell's CVODE integration ends one ulp short of the
// macro step, a remainder below the step floor; the run must complete.
func TestFlameStopTimeSliver(t *testing.T) { flame16(t, 1.02e-7) }

// Sub-floor remainders are common across the dt band 1.001e-7…1.047e-7
// (every value below but the two end points hits one): each run must
// complete.
func TestFlameStopTimeSliverSweep(t *testing.T) {
	for _, dt := range []float64{1.001e-7, 1.006e-7, 1.013e-7, 1.017e-7, 1.024e-7, 1.031e-7, 1.038e-7, 1.047e-7} {
		t.Run(strconv.FormatFloat(dt, 'g', -1, 64), func(t *testing.T) { flame16(t, dt) })
	}
}

func TestReactionDiffusionMassFractionsStayNormalized(t *testing.T) {
	_, f, err := RunReactionDiffusion(nil, rdParams()...)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := f.Lookup("grace")
	gc := comp.(*components.GrACEComponent)
	d := gc.Field("phi")
	h := gc.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j += 5 {
				for i := b.Lo[0]; i <= b.Hi[0]; i += 5 {
					var s float64
					for k := 1; k < d.NComp; k++ {
						s += pd.At(k, i, j)
					}
					if math.Abs(s-1) > 1e-6 {
						t.Fatalf("Y sum at level %d (%d,%d) = %v", l, i, j, s)
					}
				}
			}
		}
	}
}

func TestReactionDiffusionParallelMatchesSerial(t *testing.T) {
	params := []Param{
		{"grace", "nx", "24"}, {"grace", "ny", "24"},
		{"grace", "maxLevels", "1"},
		{"driver", "steps", "2"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "0"},
	}
	serial, _, err := RunReactionDiffusion(nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	tmax := -1e300
	res := cca.RunSCMD(4, mpi.CPlantModel, Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: params}); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		comp, _ := f.Lookup("driver")
		dr := comp.(*components.RDDriver)
		mu.Lock()
		if dr.TMax > tmax {
			tmax = dr.TMax
		}
		mu.Unlock()
		return nil
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if tmax != serial.TMax {
		t.Errorf("parallel Tmax %v != serial %v", tmax, serial.TMax)
	}
	if res.MaxVirtualTime() <= 0 {
		t.Error("virtual time not accumulated")
	}
}

// ---- 2D shock-interface (paper Sec. 4.3, Table 3) --------------------------

func shockParams(extra ...Param) []Param {
	base := []Param{
		{"grace", "nx", "48"}, {"grace", "ny", "24"},
		{"grace", "lx", "2.0"}, {"grace", "ly", "1.0"},
		{"grace", "maxLevels", "2"},
		{"driver", "tEnd", "0.1"}, {"driver", "maxSteps", "50"},
		{"driver", "regridEvery", "5"},
	}
	return append(base, extra...)
}

func TestShockInterfaceEndToEnd(t *testing.T) {
	dr, f, err := RunShockInterface(nil, "GodunovFlux", shockParams()...)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Steps == 0 || dr.FinalTime <= 0 {
		t.Fatalf("no progress: %+v", dr)
	}
	// AMR tracks the shock and interface.
	comp, _ := f.Lookup("grace")
	h := comp.(*components.GrACEComponent).Hierarchy()
	if h.NumLevels() < 2 {
		t.Errorf("levels = %d, want refinement at discontinuities", h.NumLevels())
	}
	if err := h.CheckProperNesting(); err != nil {
		t.Errorf("hierarchy invariants violated: %v", err)
	}
	// Density stays within physical bounds (1..post-shock*ratio-ish).
	gc := comp.(*components.GrACEComponent)
	d := gc.Field("U")
	for l := 0; l < h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j += 4 {
				for i := b.Lo[0]; i <= b.Hi[0]; i += 4 {
					rho := pd.At(euler.IRho, i, j)
					if rho < 0.5 || rho > 12 {
						t.Fatalf("rho at level %d (%d,%d) = %v", l, i, j, rho)
					}
				}
			}
		}
	}
}

func TestShockCirculationDeposition(t *testing.T) {
	// After the shock crosses the interface, baroclinic circulation of
	// negative sign must be deposited (the paper's Fig 7 quantity).
	dr, _, err := RunShockInterface(nil, "GodunovFlux",
		Param{"grace", "nx", "64"}, Param{"grace", "ny", "32"},
		Param{"grace", "lx", "2.0"}, Param{"grace", "ly", "1.0"},
		Param{"grace", "maxLevels", "1"},
		Param{"driver", "tEnd", "0.7"}, Param{"driver", "maxSteps", "400"},
		Param{"driver", "regridEvery", "0"},
	)
	if err != nil {
		t.Fatal(err)
	}
	last := dr.Circulations[len(dr.Circulations)-1]
	if last >= -0.05 {
		t.Errorf("circulation = %v, want clearly negative after interaction", last)
	}
	// Early circulation (pre-interaction) is ~0.
	if first := dr.Circulations[2]; math.Abs(first) > 1e-6 {
		t.Errorf("pre-interaction circulation = %v", first)
	}
}

func TestEFMFluxSwap(t *testing.T) {
	// The paper's headline reuse claim: swap GodunovFlux for EFMFlux
	// (no recompile) and run a strong shock (Mach 3.5) stably.
	dr, _, err := RunShockInterface(nil, "EFMFlux",
		append(shockParams(),
			Param{"gas", "mach", "3.5"},
			Param{"driver", "tEnd", "0.05"},
			Param{"driver", "maxSteps", "60"})...)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Steps == 0 {
		t.Error("EFM run made no progress")
	}
	for _, c := range dr.Circulations {
		if math.IsNaN(c) {
			t.Fatal("NaN circulation: EFM run went unstable")
		}
	}
}

// ---- assembly structure (Tables 1-3) ---------------------------------------

func TestAssembliesMatchPaperTables(t *testing.T) {
	repo := Repo()
	// Table 1: 0D ignition instances.
	f := cca.NewFramework(repo, nil)
	if err := AssembleRequest(f, RunRequest{Problem: "ignition"}); err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{"chem", "cvode", "model", "dpdt", "init", "driver"} {
		if _, err := f.ClassOf(inst); err != nil {
			t.Errorf("table 1 instance %q missing", inst)
		}
	}
	// Table 2: reaction-diffusion instances.
	f2 := cca.NewFramework(repo, nil)
	if err := AssembleRequest(f2, RunRequest{Problem: "flame"}); err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{"grace", "chem", "drfm", "ic", "diffusion", "maxdiff", "rkc", "cvode", "implicit", "regrid", "driver"} {
		if _, err := f2.ClassOf(inst); err != nil {
			t.Errorf("table 2 instance %q missing", inst)
		}
	}
	// Table 3: shock instances, with every flux choice constructible and
	// a class without the flux port refused.
	if err := AssembleRequest(cca.NewFramework(repo, nil), RunRequest{Problem: "shock", Flux: "States"}); err == nil {
		t.Error("States accepted in the flux slot")
	}
	for _, flux := range []string{"GodunovFlux", "EFMFlux", "HLLCFlux"} {
		f3 := cca.NewFramework(repo, nil)
		if err := AssembleRequest(f3, RunRequest{Problem: "shock", Flux: flux}); err != nil {
			t.Fatalf("%s: %v", flux, err)
		}
		class, _ := f3.ClassOf("flux")
		if class != flux {
			t.Errorf("flux class = %q, want %q", class, flux)
		}
	}
}

func TestRepoHasAllPaperComponents(t *testing.T) {
	repo := Repo()
	for _, class := range []string{
		"ThermoChemistry", "CvodeComponent", "ProblemModeler", "DPDt",
		"Initializer", "GrACEComponent", "InitialCondition", "DRFMComponent",
		"DiffusionPhysics", "MaxDiffCoeffEvaluator", "ExplicitIntegrator",
		"ImplicitIntegrator", "ErrorEstAndRegrid", "StatisticsComponent",
		"ConicalInterfaceIC", "States", "GodunovFlux", "EFMFlux",
		"InviscidFlux", "CharacteristicQuantities", "ExplicitIntegratorRK2",
		"BoundaryConditions", "GasProperties", "ProlongRestrict",
	} {
		if !repo.Has(class) {
			t.Errorf("repository missing %q", class)
		}
	}
}

func TestHLLCFluxSwap(t *testing.T) {
	// Third flux choice through the same seam: assemble with HLLCFlux.
	dr, _, err := RunShockInterface(nil, "HLLCFlux",
		append(shockParams(), Param{"driver", "maxSteps", "15"})...)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Steps == 0 {
		t.Error("HLLC run made no progress")
	}
	for _, c := range dr.Circulations {
		if math.IsNaN(c) {
			t.Fatal("NaN circulation with HLLC")
		}
	}
}
