package components

import (
	"math"
	"math/rand"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
)

// harness wires a minimal framework for component unit tests.
func harness(t *testing.T, setup func(f *cca.Framework)) *cca.Framework {
	t.Helper()
	f := cca.NewFramework(NewRepository(), nil)
	setup(f)
	return f
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// ---- ThermoChemistry ------------------------------------------------------

func TestThermoChemistryPorts(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.Instantiate("ThermoChemistry", "chem"))
	})
	comp, _ := f.Lookup("chem")
	tc := comp.(*ThermoChemistry)
	if tc.Mechanism().NumSpecies() != 9 {
		t.Errorf("default mechanism species = %d", tc.Mechanism().NumSpecies())
	}
	// Database port holds the gas properties.
	kv := keyValueView{tc}
	if v, ok := kv.Value("nspecies"); !ok || v != 9 {
		t.Errorf("nspecies = %v, %v", v, ok)
	}
	if v, ok := kv.Value("W_H2"); !ok || math.Abs(v-2.016e-3) > 1e-6 {
		t.Errorf("W_H2 = %v", v)
	}
	kv.SetValue("custom", 42)
	if v, _ := kv.Value("custom"); v != 42 {
		t.Error("SetValue failed")
	}
}

func TestThermoChemistryLiteParameter(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("chem", "mech", "h2air-lite"))
		mustDo(t, f.Instantiate("ThermoChemistry", "chem"))
	})
	comp, _ := f.Lookup("chem")
	if n := comp.(*ThermoChemistry).Mechanism().NumReactions(); n != 5 {
		t.Errorf("lite reactions = %d", n)
	}
}

func TestThermoChemistryBadMechanism(t *testing.T) {
	f := cca.NewFramework(NewRepository(), nil)
	mustDo(t, f.SetParameter("chem", "mech", "nope"))
	if err := f.Instantiate("ThermoChemistry", "chem"); err == nil {
		t.Error("expected error for unknown mechanism")
	}
}

// ---- ProblemModeler / DPDt --------------------------------------------------

func modelFixture(t *testing.T) (*cca.Framework, *ProblemModeler) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.Instantiate("ThermoChemistry", "chem"))
		mustDo(t, f.Instantiate("DPDt", "dpdt"))
		mustDo(t, f.Instantiate("ProblemModeler", "model"))
		mustDo(t, f.Connect("dpdt", "chemistry", "chem", "chemistry"))
		mustDo(t, f.Connect("model", "chemistry", "chem", "chemistry"))
		mustDo(t, f.Connect("model", "dpdt", "dpdt", "dpdt"))
	})
	comp, _ := f.Lookup("model")
	return f, comp.(*ProblemModeler)
}

func TestProblemModelerRHS(t *testing.T) {
	_, pm := modelFixture(t)
	mech := chem.H2Air()
	y := make([]float64, 11)
	y[0] = 1600
	copy(y[1:10], mech.StoichiometricH2Air())
	// seed OH for heat release
	y[1+mech.SpeciesIndex("OH")] = 1e-2
	chem.NormalizeY(y[1:10])
	y[10] = chem.PAtm
	ydot := make([]float64, 11) // T + 9 species + P, every entry written
	for i := range ydot {
		ydot[i] = math.NaN()
	}
	pm.Eval(0, y, ydot)
	for i, v := range ydot {
		if math.IsNaN(v) {
			t.Errorf("ydot[%d] not written", i)
		}
	}
	if ydot[0] <= 0 {
		t.Errorf("dT/dt = %v, want positive for OH-seeded mixture", ydot[0])
	}
	if ydot[10] <= 0 {
		t.Errorf("dP/dt = %v, want positive in heating rigid vessel", ydot[10])
	}
	// Mass conservation in fraction space.
	var s float64
	for _, v := range ydot[1:10] {
		s += v
	}
	if math.Abs(s) > 1e-6 {
		t.Errorf("sum dY/dt = %v", s)
	}
}

// ---- GrACEComponent ---------------------------------------------------------

func graceFixture(t *testing.T, params ...[2]string) *GrACEComponent {
	f := harness(t, func(f *cca.Framework) {
		for _, p := range params {
			mustDo(t, f.SetParameter("grace", p[0], p[1]))
		}
		mustDo(t, f.Instantiate("GrACEComponent", "grace"))
	})
	comp, _ := f.Lookup("grace")
	return comp.(*GrACEComponent)
}

func TestGrACEDeclareAndSpacing(t *testing.T) {
	gc := graceFixture(t, [2]string{"nx", "50"}, [2]string{"ny", "50"}, [2]string{"lx", "0.01"}, [2]string{"ly", "0.01"})
	d := gc.Declare("phi", 3, 2)
	if d == nil || gc.Field("phi") != d {
		t.Fatal("declare/field mismatch")
	}
	// Re-declare returns the same object.
	if gc.Declare("phi", 3, 2) != d {
		t.Error("re-declare created a new object")
	}
	dx, dy := gc.Spacing(0)
	if math.Abs(dx-2e-4) > 1e-12 || math.Abs(dy-2e-4) > 1e-12 {
		t.Errorf("spacing = %v, %v", dx, dy)
	}
	dx1, _ := gc.Spacing(1)
	if math.Abs(dx1-1e-4) > 1e-12 {
		t.Errorf("level-1 spacing = %v", dx1)
	}
}

func TestGrACERegridRemapsFields(t *testing.T) {
	gc := graceFixture(t, [2]string{"nx", "32"}, [2]string{"ny", "32"}, [2]string{"maxLevels", "2"})
	d := gc.Declare("phi", 1, 2)
	for _, pd := range d.LocalPatches(0) {
		pd.FillAll(7)
	}
	flags := amr.NewFlagField(gc.Hierarchy().LevelDomain(0))
	flags.SetBox(amr.NewBox(10, 10, 19, 19))
	gc.Regrid([]*amr.FlagField{flags}, amr.RegridOptions{})
	if gc.Hierarchy().NumLevels() != 2 {
		t.Fatalf("levels = %d", gc.Hierarchy().NumLevels())
	}
	// Data survived the remap, including prolongation onto level 1.
	nd := gc.Field("phi")
	if nd == d {
		t.Error("field object not replaced by remap")
	}
	for l := 0; l < 2; l++ {
		for _, pd := range nd.LocalPatches(l) {
			b := pd.Interior()
			if v := pd.At(0, b.Lo[0], b.Lo[1]); v != 7 {
				t.Errorf("level %d value = %v, want 7", l, v)
			}
		}
	}
}

func TestGrACESetBCSet(t *testing.T) {
	gc := graceFixture(t, [2]string{"nx", "8"}, [2]string{"ny", "8"})
	if err := gc.SetBCSet("missing", field.BCSet{}); err == nil {
		t.Error("expected error for undeclared field")
	}
	gc.Declare("phi", 1, 1)
	mustDo(t, gc.SetBCSet("phi", field.UniformBC(field.BCSpec{Kind: field.BCDirichlet, Value: -3})))
	d := gc.Field("phi")
	d.LocalPatches(0)[0].FillAll(1)
	gc.Apply("phi", 0)
	if got := d.LocalPatches(0)[0].At(0, -1, 4); got != -3 {
		t.Errorf("custom BC value = %v", got)
	}
}

// ---- InitialCondition --------------------------------------------------------

func TestInitialConditionHotSpots(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("grace", "nx", "40"))
		mustDo(t, f.SetParameter("grace", "ny", "40"))
		mustDo(t, f.Instantiate("GrACEComponent", "grace"))
		mustDo(t, f.Instantiate("ThermoChemistry", "chem"))
		mustDo(t, f.Instantiate("InitialCondition", "ic"))
		mustDo(t, f.Connect("ic", "chemistry", "chem", "chemistry"))
	})
	gComp, _ := f.Lookup("grace")
	gc := gComp.(*GrACEComponent)
	gc.Declare("phi", 10, 2)
	icComp, _ := f.Lookup("ic")
	icComp.(*InitialCondition).Impose(gc, "phi")

	d := gc.Field("phi")
	pd := d.LocalPatches(0)[0]
	var tmin, tmax float64 = 1e300, -1e300
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			v := pd.At(0, i, j)
			if v < tmin {
				tmin = v
			}
			if v > tmax {
				tmax = v
			}
			// Mass fractions stoichiometric everywhere.
			var s float64
			for k := 1; k < 10; k++ {
				s += pd.At(k, i, j)
			}
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("Y sum = %v at (%d,%d)", s, i, j)
			}
		}
	}
	if tmin < 299 || tmin > 350 {
		t.Errorf("background T = %v", tmin)
	}
	if tmax < 1500 {
		t.Errorf("hot spot peak = %v", tmax)
	}
}

// ---- ErrorEstAndRegrid --------------------------------------------------------

func TestErrorEstAndRegridFlagsGradients(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("grace", "nx", "32"))
		mustDo(t, f.SetParameter("grace", "ny", "32"))
		mustDo(t, f.SetParameter("grace", "maxLevels", "2"))
		mustDo(t, f.Instantiate("GrACEComponent", "grace"))
		mustDo(t, f.Instantiate("ErrorEstAndRegrid", "regrid"))
	})
	gComp, _ := f.Lookup("grace")
	gc := gComp.(*GrACEComponent)
	d := gc.Declare("phi", 1, 2)
	// Step function at x=16: steep gradient there only.
	pd := d.LocalPatches(0)[0]
	g := pd.GrownBox()
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			v := 0.0
			if i >= 16 {
				v = 1
			}
			pd.Set(0, i, j, v)
		}
	}
	rComp, _ := f.Lookup("regrid")
	changed := rComp.(*ErrorEstAndRegrid).EstimateAndRegrid(gc, "phi")
	if !changed {
		t.Fatal("regrid reported no change for a step function")
	}
	h := gc.Hierarchy()
	if h.NumLevels() != 2 {
		t.Fatalf("levels = %d", h.NumLevels())
	}
	// The fine level hugs the discontinuity column.
	for _, p := range h.Level(1).Patches {
		if p.Box.Lo[0] > 40 || p.Box.Hi[0] < 24 {
			t.Errorf("fine patch %v does not straddle the jump at fine-x=32", p.Box)
		}
	}
	// Uniform field: regrid drops refinement.
	for _, pd := range gc.Field("phi").LocalPatches(0) {
		pd.FillAll(5)
	}
	rComp.(*ErrorEstAndRegrid).EstimateAndRegrid(gc, "phi")
	if gc.Hierarchy().NumLevels() != 1 {
		t.Errorf("uniform field still refined: %d levels", gc.Hierarchy().NumLevels())
	}
}

// ---- hydro components ---------------------------------------------------------

func TestPostShockState(t *testing.T) {
	// Mach 1.5 into air (rho=1, p=1, gamma=1.4): standard RH values.
	w := PostShockState(1.4, 1.5, 1, 1)
	if math.Abs(w.P-2.4583) > 1e-3 {
		t.Errorf("p2 = %v, want 2.458", w.P)
	}
	if math.Abs(w.Rho-1.8621) > 1e-3 {
		t.Errorf("rho2 = %v, want 1.862", w.Rho)
	}
	if math.Abs(w.U-0.6944*math.Sqrt(1.4)) > 1e-3 {
		t.Errorf("u2 = %v", w.U)
	}
	// Mach 1: no jump.
	w1 := PostShockState(1.4, 1, 1, 1)
	if math.Abs(w1.P-1) > 1e-12 || math.Abs(w1.Rho-1) > 1e-12 || math.Abs(w1.U) > 1e-12 {
		t.Errorf("Mach-1 'shock' changed the state: %+v", w1)
	}
}

func TestConicalInterfaceICStates(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("grace", "nx", "40"))
		mustDo(t, f.SetParameter("grace", "ny", "20"))
		mustDo(t, f.SetParameter("grace", "lx", "2.0"))
		mustDo(t, f.SetParameter("grace", "ly", "1.0"))
		mustDo(t, f.Instantiate("GrACEComponent", "grace"))
		mustDo(t, f.Instantiate("GasProperties", "gas"))
		mustDo(t, f.Instantiate("ConicalInterfaceIC", "ic"))
		mustDo(t, f.Connect("ic", "gasProperties", "gas", "properties"))
	})
	gComp, _ := f.Lookup("grace")
	gc := gComp.(*GrACEComponent)
	gc.Declare("U", euler.NumComp, 2)
	icComp, _ := f.Lookup("ic")
	icComp.(*ConicalInterfaceIC).Impose(gc, "U")

	pd := gc.Field("U").LocalPatches(0)[0]
	g := euler.Gas{Gamma: 1.4}
	read := func(i, j int) euler.Primitive {
		var u euler.Conserved
		for k := 0; k < euler.NumComp; k++ {
			u[k] = pd.At(k, i, j)
		}
		return g.ToPrimitive(u)
	}
	// Far left: post-shock (moving, compressed).
	wl := read(1, 10)
	if wl.U <= 0 || wl.P <= 1.5 {
		t.Errorf("post-shock state = %+v", wl)
	}
	// Middle (between shock at 0.4 and interface foot at 0.8): quiescent air.
	wm := read(12, 1)
	if math.Abs(wm.Rho-1) > 1e-9 || math.Abs(wm.P-1) > 1e-9 || wm.Zeta != 0 {
		t.Errorf("air state = %+v", wm)
	}
	// Far right: Freon, density 3, zeta 1.
	wr := read(38, 10)
	if math.Abs(wr.Rho-3) > 1e-9 || wr.Zeta != 1 {
		t.Errorf("freon state = %+v", wr)
	}
}

func TestBoundaryConditionsComponent(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("grace", "nx", "8"))
		mustDo(t, f.SetParameter("grace", "ny", "8"))
		mustDo(t, f.Instantiate("GrACEComponent", "grace"))
		mustDo(t, f.Instantiate("BoundaryConditions", "bc"))
		mustDo(t, f.Connect("bc", "mesh", "grace", "mesh"))
	})
	gComp, _ := f.Lookup("grace")
	gc := gComp.(*GrACEComponent)
	gc.Declare("U", euler.NumComp, 2)
	pd := gc.Field("U").LocalPatches(0)[0]
	gbox := pd.GrownBox()
	for j := gbox.Lo[1]; j <= gbox.Hi[1]; j++ {
		for i := gbox.Lo[0]; i <= gbox.Hi[0]; i++ {
			pd.Set(euler.IRho, i, j, 1)
			pd.Set(euler.IMy, i, j, 0.5)
		}
	}
	bComp, _ := f.Lookup("bc")
	bComp.(*BoundaryConditions).Apply("U", 0)
	// Bottom wall reflects: ghost y-momentum flips sign.
	if got := pd.At(euler.IMy, 4, -1); got != -0.5 {
		t.Errorf("reflected My = %v, want -0.5", got)
	}
	// Density mirrors without flip.
	if got := pd.At(euler.IRho, 4, -1); got != 1 {
		t.Errorf("mirrored rho = %v", got)
	}
	// X sides default to outflow.
	if got := pd.At(euler.IMy, -1, 4); got != 0.5 {
		t.Errorf("outflow My = %v", got)
	}
}

func TestStatesComponentLimiterParameter(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("states", "limiter", "first"))
		mustDo(t, f.Instantiate("States", "states"))
	})
	comp, _ := f.Lookup("states")
	st := comp.(*States)
	// With first-order states, l/r at a jump equal the cell averages.
	h := amr.NewHierarchy(amr.NewBox(0, 0, 7, 7), 2, 1, 1)
	d := field.New("U", h, euler.NumComp, 2, nil)
	pd := d.LocalPatches(0)[0]
	g := euler.Gas{Gamma: 1.4}
	gbox := pd.GrownBox()
	for j := gbox.Lo[1]; j <= gbox.Hi[1]; j++ {
		for i := gbox.Lo[0]; i <= gbox.Hi[0]; i++ {
			w := euler.Primitive{Rho: 1, P: 1}
			if i >= 4 {
				w.Rho = 2
			}
			u := g.ToConserved(w)
			for k := 0; k < euler.NumComp; k++ {
				pd.Set(k, i, j, u[k])
			}
		}
	}
	// One row of x faces across the jump: faces 0..4 lie between
	// cells 1..5 and the cells to their left; the jump is face 3.
	l, r := make([]euler.Primitive, 5), make([]euler.Primitive, 5)
	st.Row(g, pd, 1, 4, 0, l, r)
	for f := range l {
		wantL, wantR := 1.0, 1.0
		if f >= 3 {
			wantR = 2
		}
		if f >= 4 {
			wantL = 2
		}
		if l[f].Rho != wantL || r[f].Rho != wantR {
			t.Errorf("first-order states at face %d = %v, %v; want %v, %v", f, l[f].Rho, r[f].Rho, wantL, wantR)
		}
	}
}

func TestFluxComponentsAgreeOnSmooth(t *testing.T) {
	g := euler.Gas{Gamma: 1.4}
	w := []euler.Primitive{
		{Rho: 1.2, U: 0.3, V: -0.1, P: 2, Zeta: 0.5},
		{Rho: 0.7, U: -0.4, V: 0.2, P: 1.1, Zeta: 0.1},
	}
	fg, fe := make([]euler.Conserved, len(w)), make([]euler.Conserved, len(w))
	(&GodunovFluxComp{}).Row(g, w, w, fg)
	(&EFMFluxComp{}).Row(g, w, w, fe)
	for f := range w {
		for k := 0; k < euler.NumComp; k++ {
			if math.Abs(fg[f][k]-fe[f][k]) > 1e-9*math.Max(1, math.Abs(fg[f][k])) {
				t.Errorf("face %d flux[%d]: godunov %v, efm %v", f, k, fg[f][k], fe[f][k])
			}
		}
	}
}

// TestRowFluxMatchesKernels: each flux component's Row is its per-face
// kernel applied face by face, bit for bit, on random states.
func TestRowFluxMatchesKernels(t *testing.T) {
	g := euler.Gas{Gamma: 1.4}
	rng := rand.New(rand.NewSource(3))
	const n = 64
	l, r := make([]euler.Primitive, n), make([]euler.Primitive, n)
	random := func() euler.Primitive {
		return euler.Primitive{
			Rho: 0.05 + 5*rng.Float64(), U: 6*rng.Float64() - 3, V: 6*rng.Float64() - 3,
			P: 0.05 + 10*rng.Float64(), Zeta: rng.Float64(),
		}
	}
	for f := range l {
		l[f], r[f] = random(), random()
	}
	for _, c := range []struct {
		name   string
		port   FluxPort
		kernel euler.FluxFunc
	}{
		{"GodunovFlux", &GodunovFluxComp{}, euler.GodunovFlux},
		{"HLLCFlux", &HLLCFluxComp{}, euler.HLLCFlux},
		{"EFMFlux", &EFMFluxComp{}, euler.EFMFlux},
	} {
		got := make([]euler.Conserved, n)
		c.port.Row(g, l, r, got)
		for f := range got {
			want := c.kernel(g, l[f], r[f])
			for k := range want {
				if math.Float64bits(got[f][k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s face %d flux[%d]: row %v, kernel %v", c.name, f, k, got[f][k], want[k])
				}
			}
		}
	}
}

// ---- StatisticsComponent -------------------------------------------------------

func TestStatisticsComponent(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.Instantiate("StatisticsComponent", "stats"))
	})
	comp, _ := f.Lookup("stats")
	sc := comp.(*StatisticsComponent)
	sc.Record("a", 1)
	sc.Record("a", 2)
	sc.Record("b", 3)
	if got := sc.Get("a"); len(got) != 2 || got[1] != 2 {
		t.Errorf("Get(a) = %v", got)
	}
	if keys := sc.Keys(); len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v", keys)
	}
	if sc.Get("zzz") != nil {
		t.Error("missing key should return nil")
	}
}

// ---- CvodeComponent -------------------------------------------------------------

// vecRHS is a trivial RHSPort for integrator tests.
type vecRHS struct{}

func (vecRHS) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(vecRHS{}, "rhs", RHSPortType)
}
func (vecRHS) Eval(_ float64, y, ydot []float64) {
	ydot[0] = -2 * y[0]
}
func (vecRHS) JacFn() cvode.Jac { return nil }

func TestCvodeComponentIntegrates(t *testing.T) {
	repo := cca.NewRepository()
	repo.Register("VecRHS", func() cca.Component { return vecRHS{} })
	repo.Register("CvodeComponent", func() cca.Component { return &CvodeComponent{} })
	f := cca.NewFramework(repo, nil)
	mustDo(t, f.Instantiate("VecRHS", "rhs"))
	mustDo(t, f.Instantiate("CvodeComponent", "cvode"))
	mustDo(t, f.Connect("cvode", "rhs", "rhs", "rhs"))
	comp, _ := f.Lookup("cvode")
	cc := comp.(*CvodeComponent)
	y := []float64{3}
	st, err := cc.IntegrateTo(0, 1, y)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * math.Exp(-2)
	if math.Abs(y[0]-want) > 1e-5 {
		t.Errorf("y(1) = %v, want %v", y[0], want)
	}
	if st.Steps == 0 || cc.TotalStats().RHSEvals == 0 {
		t.Errorf("stats empty: %+v", st)
	}
}

func TestGrACEAdoptRestoredField(t *testing.T) {
	gc := graceFixture(t, [2]string{"nx", "16"}, [2]string{"ny", "16"})
	d := gc.Declare("U", 2, 1)
	d.LocalPatches(0)[0].FillAll(9)
	// Rebuild the field the way a checkpoint restore does: hierarchy from
	// its snapshot, patch storage from the saved raw arrays.
	h, err := amr.FromSnapshot(d.Hierarchy().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	restored := field.New("U", h, 2, 1, nil)
	if err := restored.LocalPatches(0)[0].SetRawData(d.LocalPatches(0)[0].RawData()); err != nil {
		t.Fatal(err)
	}

	gc2 := graceFixture(t, [2]string{"nx", "16"}, [2]string{"ny", "16"})
	if err := gc2.AdoptAll(map[string]*field.DataObject{"U": restored}); err != nil {
		t.Fatal(err)
	}
	if gc2.Field("U") != restored {
		t.Fatal("adopt did not install the field")
	}
	if gc2.Hierarchy() != restored.Hierarchy() {
		t.Fatal("adopt did not install the hierarchy")
	}
	if got := gc2.Field("U").LocalPatches(0)[0].At(0, 4, 4); got != 9 {
		t.Errorf("restored value = %v", got)
	}
	// BCs work on the adopted field.
	gc2.Apply("U", 0)
}

func TestProlongRestrictComponent(t *testing.T) {
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.SetParameter("grace", "nx", "32"))
		mustDo(t, f.SetParameter("grace", "ny", "32"))
		mustDo(t, f.SetParameter("grace", "maxLevels", "2"))
		mustDo(t, f.Instantiate("GrACEComponent", "grace"))
		mustDo(t, f.Instantiate("ProlongRestrict", "pr"))
	})
	gComp, _ := f.Lookup("grace")
	gc := gComp.(*GrACEComponent)
	gc.Declare("u", 1, 2)
	flags := amr.NewFlagField(gc.Hierarchy().LevelDomain(0))
	flags.SetBox(amr.NewBox(8, 8, 23, 23))
	gc.Regrid([]*amr.FlagField{flags}, amr.RegridOptions{})

	d := gc.Field("u")
	for _, pd := range d.LocalPatches(0) {
		pd.FillAll(3)
	}
	for _, pd := range d.LocalPatches(1) {
		pd.FillAll(0)
	}
	prComp, _ := f.Lookup("pr")
	pr := prComp.(*ProlongRestrict)
	pr.Prolong(gc, "u", 1)
	for _, pd := range d.LocalPatches(1) {
		b := pd.Interior()
		if got := pd.At(0, b.Lo[0]+2, b.Lo[1]+2); got != 3 {
			t.Fatalf("prolonged value = %v", got)
		}
	}
	// Overwrite fine with 7; restriction pushes it down.
	for _, pd := range d.LocalPatches(1) {
		pd.FillAll(7)
	}
	pr.Restrict(gc, "u", 1)
	foot := gc.Hierarchy().Level(1).Patches[0].Box.Coarsen(2)
	for _, pd := range d.LocalPatches(0) {
		ov := pd.Interior().Intersect(foot)
		if ov.Empty() {
			continue
		}
		if got := pd.At(0, ov.Lo[0], ov.Lo[1]); got != 7 {
			t.Fatalf("restricted value = %v", got)
		}
	}
	// Coarse-fine ghost fill runs without panicking.
	pr.FillCoarseFine(gc, "u", 1)
}

// ---- Spec accessors -------------------------------------------------------

// TestSpecAccessorPanicsOnUndeclaredKey: reading a parameter the spec
// does not declare (or a declared one as the wrong kind) is a bug in
// the component, so it panics instead of inventing a default.
func TestSpecAccessorPanicsOnUndeclaredKey(t *testing.T) {
	for name, read := range map[string]func(){
		"undeclared key": func() { rdDriverSpec.Float(nil, "dtMax") },
		"wrong kind":     func() { rdDriverSpec.Int(nil, "dt") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accessor did not panic", name)
				}
			}()
			read()
		}()
	}
	tm := cca.NewTypeMap()
	tm.SetString("steps", "12")
	if got := rdDriverSpec.Int(tm, "steps"); got != 12 {
		t.Errorf("set steps read back as %d", got)
	}
	if got := rdDriverSpec.Float(tm, "dt"); got != 1e-7 {
		t.Errorf("unset dt read as %g, want the declared default", got)
	}
}

// ---- DRFMComponent --------------------------------------------------------

// MaxDiffusivity runs on every sampled cell at every RKC step (the
// MaxDiffCoeffEvaluator's CFL bound): once its scratch pool is warm it
// must not allocate.
func TestDRFMMaxDiffusivityAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	f := harness(t, func(f *cca.Framework) {
		mustDo(t, f.Instantiate("DRFMComponent", "drfm"))
	})
	comp, _ := f.Lookup("drfm")
	dc := comp.(*DRFMComponent)
	Y := chem.H2Air().StoichiometricH2Air()
	var d float64
	if a := testing.AllocsPerRun(100, func() { d = dc.MaxDiffusivity(1500, chem.PAtm, Y) }); a != 0 {
		t.Errorf("warm MaxDiffusivity allocates %v times per call", a)
	}
	if d <= 0 {
		t.Errorf("MaxDiffusivity = %v", d)
	}
}
