package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// flameScenario renders the flame assembly as scenario text with the
// same shrunken parameters flameSpec uses, so built-in and scenario
// submissions of the same run can be compared series-for-series.
func flameScenario(steps int) string {
	return fmt.Sprintf(`scenario flame_scn
component grace     GrACEComponent { nx = 16  ny = 16  maxLevels = 2 }
component chem      ThermoChemistry
component drfm      DRFMComponent
component ic        InitialCondition
component diffusion DiffusionPhysics
component maxdiff   MaxDiffCoeffEvaluator
component rkc       ExplicitIntegrator
component cvode     CvodeComponent
component implicit  ImplicitIntegrator
component regrid    ErrorEstAndRegrid
component stats     StatisticsComponent
component driver    RDDriver { steps = %d  dt = 1e-7  regridEvery = 2 }
connect ic.chemistry        -> chem.chemistry
connect diffusion.transport -> drfm.transport
connect diffusion.chemistry -> chem.chemistry
connect maxdiff.transport   -> drfm.transport
connect maxdiff.chemistry   -> chem.chemistry
connect rkc.patchRHS        -> diffusion.patchRHS
connect rkc.maxEigen        -> maxdiff.maxEigen
connect cvode.rhs           -> implicit.cellRHS
connect implicit.integrator -> cvode.integrator
connect implicit.chemistry  -> chem.chemistry
connect driver.mesh          -> grace.mesh
connect driver.ic            -> ic.ic
connect driver.explicit      -> rkc.integrator
connect driver.cellChemistry -> implicit.cellChemistry
connect driver.regrid        -> regrid.regrid
connect driver.stats         -> stats.stats
connect driver.chemistry     -> chem.chemistry
run driver
`, steps)
}

func scenarioSpec(text string) Spec { return Spec{Scenario: text} }

// TestScenarioSpecMatchesBuiltin: the built-in flame spec and the same
// assembly submitted as scenario text are one computation — one content
// key — so the text submission is served from the built-in's stored
// result without computing a step.
func TestScenarioSpecMatchesBuiltin(t *testing.T) {
	builtin, text := flameSpec(3, 1, "normal"), scenarioSpec(flameScenario(3))
	for _, sp := range []*Spec{&builtin, &text} {
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if builtin.FullKey() != text.FullKey() || builtin.PrefixKey() != text.PrefixKey() {
		t.Fatal("the built-in flame spec and its scenario text hash to different keys")
	}

	s := newTestSched(t, 1)
	b, err := s.Submit(flameSpec(3, 1, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	bst := waitTerminal(t, s, b.ID)
	if bst.State != StateDone {
		t.Fatalf("builtin: %+v", bst)
	}

	sc, err := s.Submit(scenarioSpec(flameScenario(3)))
	if err != nil {
		t.Fatal(err)
	}
	sst := waitTerminal(t, s, sc.ID)
	if !sst.CacheHit || sst.StepsRun != 0 {
		t.Fatalf("scenario twin of a finished built-in recomputed: %+v", sst)
	}
	if sst.Problem != "scenario:flame_scn" {
		t.Fatalf("problem label: %q", sst.Problem)
	}
	sameSeries(t, "scenario-vs-builtin cells", bst.Result.Series["cells"], sst.Result.Series["cells"])
}

// TestScenarioSpecRejections: malformed payloads fail at Submit with
// the front-end's positioned diagnostics, not inside a worker.
func TestScenarioSpecRejections(t *testing.T) {
	s := newTestSched(t, 1)
	if _, err := s.Submit(Spec{Scenario: "scenario x\ncomponent a Bogus\nrun a\n"}); err == nil {
		t.Fatal("invalid scenario was admitted")
	} else if !strings.Contains(err.Error(), `unknown component class "Bogus"`) {
		t.Fatalf("rejection lost the diagnostic: %v", err)
	}

	mixed := scenarioSpec(flameScenario(2))
	mixed.Problem = "flame"
	if _, err := s.Submit(mixed); err == nil {
		t.Fatal("scenario+problem spec was admitted")
	}

	sweep := scenarioSpec(flameScenario(2) + "sweep {\n    param driver.steps = [2, 4]\n}\n")
	if _, err := s.Submit(sweep); err == nil {
		t.Fatal("Submit accepted a sweep")
	} else if !strings.Contains(err.Error(), "job array") {
		t.Fatalf("sweep rejection should point at arrays: %v", err)
	}
}

// TestScenarioArraySharedLineage is the acceptance scenario: a
// duration sweep submitted as a job array whose points share one dedup
// prefix key, so each successive point warm-starts from its
// predecessor's checkpoints, and the final point matches a solo
// full-length run bit for bit.
func TestScenarioArraySharedLineage(t *testing.T) {
	ref := newTestSched(t, 1)
	r, err := ref.Submit(scenarioSpec(flameScenario(4)))
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, ref, r.ID)
	if refSt.State != StateDone {
		t.Fatalf("reference: %+v", refSt)
	}

	s := newTestSched(t, 1)
	arr, err := s.SubmitArray(scenarioSpec(
		flameScenario(2) + "sweep {\n    param driver.steps = [2, 4]\n}\n"))
	if err != nil {
		t.Fatal(err)
	}
	as, ok := s.ArrayStatus(arr.ID)
	if !ok {
		t.Fatalf("array %s not registered", arr.ID)
	}
	if as.Points != 2 || !as.SharedPrefix {
		t.Fatalf("array: %+v", as)
	}

	short := waitTerminal(t, s, as.Jobs[0].ID)
	long := waitTerminal(t, s, as.Jobs[1].ID)
	if short.State != StateDone || long.State != StateDone {
		t.Fatalf("states: %s / %s", short.State, long.State)
	}
	if short.StepsRun != 2 {
		t.Fatalf("short point computed %d steps", short.StepsRun)
	}
	if !long.WarmStart {
		t.Fatalf("second point did not warm-start from the first's lineage: %+v", long)
	}
	if long.StepsRun >= 4 {
		t.Fatalf("warm-started point recomputed the shared prefix: %d live steps", long.StepsRun)
	}
	sameSeries(t, "array warm-start cells", refSt.Result.Series["cells"], long.Result.Series["cells"])
}

// TestScenarioArrayDistinctLineages: a class-axis sweep (component
// swap) yields points with distinct prefix keys — independent runs, no
// shared checkpoints.
func TestScenarioArrayDistinctLineages(t *testing.T) {
	scn := `scenario flux_pair
component grace    GrACEComponent { nx = 24  ny = 12  maxLevels = 2 }
component gas      GasProperties
component ic       ConicalInterfaceIC
component states   States
component flux     GodunovFlux
component inviscid InviscidFlux
component chars    CharacteristicQuantities
component bc       BoundaryConditions
component rk2      ExplicitIntegratorRK2
component regrid   ErrorEstAndRegrid
component stats    StatisticsComponent
component driver   ShockDriver { tEnd = 1.0  maxSteps = 4  regridEvery = 2 }
connect ic.gasProperties       -> gas.properties
connect inviscid.states        -> states.states
connect inviscid.flux          -> flux.flux
connect inviscid.gasProperties -> gas.properties
connect chars.gasProperties    -> gas.properties
connect bc.mesh                -> grace.mesh
connect rk2.patchRHS           -> inviscid.patchRHS
connect rk2.bc                 -> bc.bc
connect driver.mesh            -> grace.mesh
connect driver.ic              -> ic.ic
connect driver.integrator      -> rk2.integrator
connect driver.characteristics -> chars.characteristics
connect driver.regrid          -> regrid.regrid
connect driver.stats           -> stats.stats
connect driver.bc              -> bc.bc
run driver
sweep {
    class flux = [GodunovFlux, EFMFlux]
}
`
	s := newTestSched(t, 1)
	arr, err := s.SubmitArray(scenarioSpec(scn))
	if err != nil {
		t.Fatal(err)
	}
	as, _ := s.ArrayStatus(arr.ID)
	if as.Points != 2 || as.SharedPrefix {
		t.Fatalf("class-swap points must not share a lineage: %+v", as)
	}
	a := waitTerminal(t, s, as.Jobs[0].ID)
	b := waitTerminal(t, s, as.Jobs[1].ID)
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("states: %s / %s", a.State, b.State)
	}
	if b.WarmStart || b.CacheHit {
		t.Fatalf("EFM point inherited Godunov state: %+v", b)
	}
	// Different flux schemes must actually disagree on the trajectory.
	at, bt := a.Result.Series["dt"], b.Result.Series["dt"]
	same := len(at) == len(bt)
	if same {
		for i := range at {
			if at[i] != bt[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("Godunov and EFM produced identical dt series")
	}
}

// TestArrayHTTPEndpoints: the /arrays routes accept a swept scenario,
// report its shared-lineage shape, and list registered arrays.
func TestArrayHTTPEndpoints(t *testing.T) {
	sched := newTestSched(t, 1)
	srv, err := Listen("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// A sweep must go to /arrays, not /jobs.
	sweep := scenarioSpec(flameScenario(2) + "sweep {\n    param driver.steps = [2, 3]\n}\n")
	if code := httpJSON(t, "POST", base+"/jobs", sweep, nil); code != http.StatusBadRequest {
		t.Fatalf("POST /jobs with a sweep: %d, want 400", code)
	}
	// A sweepless scenario must go to /jobs, not /arrays.
	if code := httpJSON(t, "POST", base+"/arrays", scenarioSpec(flameScenario(2)), nil); code != http.StatusBadRequest {
		t.Fatalf("POST /arrays without a sweep: %d, want 400", code)
	}

	var as ArrayStatus
	if code := httpJSON(t, "POST", base+"/arrays", sweep, &as); code != http.StatusAccepted {
		t.Fatalf("POST /arrays: %d", code)
	}
	if as.Points != 2 || !as.SharedPrefix || len(as.Jobs) != 2 {
		t.Fatalf("array status: %+v", as)
	}
	for _, js := range as.Jobs {
		if st := waitHTTPDone(t, base, js.ID); st.State != StateDone {
			t.Fatalf("point %s ended %s", js.ID, st.State)
		}
	}

	var got ArrayStatus
	if code := httpJSON(t, "GET", base+"/arrays/"+as.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("GET /arrays/%s: %d", as.ID, code)
	}
	if !got.Jobs[1].WarmStart {
		t.Fatalf("second point over HTTP did not warm-start: %+v", got.Jobs[1])
	}
	var all []ArrayStatus
	if code := httpJSON(t, "GET", base+"/arrays", nil, &all); code != http.StatusOK || len(all) != 1 {
		t.Fatalf("GET /arrays: %d, %d arrays", code, len(all))
	}
	if code := httpJSON(t, "GET", base+"/arrays/array-9999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing array returned %d", code)
	}
}
