package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/components"
	"ccahydro/internal/cvode"
	"ccahydro/internal/mpi"
)

// Golden trajectory tests for the generated chemistry kernels: each
// assembled application must tell the same physics story when its
// chemistry component is swapped for one that evaluates the
// interpreted Reaction tables, and the kernel runs must build every
// Jacobian analytically — zero FD sweeps. The solver-level oracle
// (interpreted sources with FD Jacobians, every mechanism) lives in
// internal/chem/kernels.

// interpretedChemistry provides ChemistryPort from the mechanism's
// interpreted Reaction tables. Kernel still returns the generated
// kernel, so adaptors build the same analytic Jacobians on both engines
// and only the source terms differ. Flame cells call it from many
// goroutines, hence the workspace pool.
type interpretedChemistry struct {
	mech  *chem.Mechanism
	ws    sync.Pool
	calls atomic.Int64
}

func (ic *interpretedChemistry) SetServices(svc cca.Services) error {
	m, err := chem.ByName(svc.Parameters().GetString("mech", "h2air"))
	if err != nil {
		return err
	}
	ic.mech = m
	ic.ws.New = func() any { return chem.NewSourceWorkspace(m) }
	return svc.AddProvidesPort(ic, "chemistry", components.ChemistryPortType)
}

func (ic *interpretedChemistry) Mechanism() *chem.Mechanism { return ic.mech }
func (ic *interpretedChemistry) Kernel() chem.Kernel        { return chem.KernelFor(ic.mech.Name) }

func (ic *interpretedChemistry) ConstPressure(T, P float64, Y, dY []float64) float64 {
	ws := ic.ws.Get().(*chem.SourceWorkspace)
	defer ic.ws.Put(ws)
	ic.calls.Add(1)
	return ic.mech.ConstPressureSource(T, P, Y, dY, ws)
}

func (ic *interpretedChemistry) ConstVolume(T, rho float64, Y, dY []float64) float64 {
	ws := ic.ws.Get().(*chem.SourceWorkspace)
	defer ic.ws.Put(ws)
	ic.calls.Add(1)
	return ic.mech.ConstVolumeSource(T, rho, Y, dY, ws)
}

// runEngines runs a built-in twice: as assembled (generated kernels)
// and with every chemistry wire moved from "chem" to an
// interpretedChemistry instance — the paper's component swap, made on
// the live framework before the go port fires. It returns both
// frameworks, kernel run first.
func runEngines(t *testing.T, req RunRequest) (*cca.Framework, *cca.Framework) {
	t.Helper()
	var fs [2]*cca.Framework
	ic := &interpretedChemistry{}
	for i := range fs {
		repo := Repo()
		repo.Register("InterpretedChemistry", func() cca.Component { return ic })
		f := cca.NewFramework(repo, nil)
		if err := AssembleRequest(f, req); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := f.Instantiate("InterpretedChemistry", "ichem"); err != nil {
				t.Fatal(err)
			}
			for _, c := range f.Connections() {
				if c.Provider != "chem" || c.ProvidesPort != "chemistry" {
					continue
				}
				if err := f.Disconnect(c.User, c.UsesPort); err != nil {
					t.Fatal(err)
				}
				if err := f.Connect(c.User, c.UsesPort, "ichem", "chemistry"); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.Go("driver", "go"); err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	if ic.calls.Load() == 0 {
		t.Fatal("interpreted chemistry never called: the swap did not take")
	}
	requireAnalyticOnly(t, "kernel run", cvodeStats(t, fs[0]))
	return fs[0], fs[1]
}

// requireAnalyticOnly asserts the run resolved the analytic Jacobian on
// every build.
func requireAnalyticOnly(t *testing.T, label string, st cvode.Stats) {
	t.Helper()
	if st.JacBuildsAnalytic == 0 {
		t.Errorf("%s: no analytic Jacobian builds recorded (kernel path not taken)", label)
	}
	if st.JacBuildsFD != 0 {
		t.Errorf("%s: %d finite-difference Jacobian sweeps on a kernel path, want 0", label, st.JacBuildsFD)
	}
}

func lookupDriver[D cca.Component](t *testing.T, f *cca.Framework) D {
	t.Helper()
	comp, err := f.Lookup("driver")
	if err != nil {
		t.Fatal(err)
	}
	return comp.(D)
}

// TestIgnitionGoldenKernelsVsInterpreted runs the 0D ignition problem
// on both engines. Their step sequences differ, so trajectories agree
// to solver tolerance, not bit for bit: the ignition delay and the
// final equilibrium state are the physically meaningful invariants.
func TestIgnitionGoldenKernelsVsInterpreted(t *testing.T) {
	fg, fi := runEngines(t, RunRequest{Problem: "ignition", Params: []Param{
		{"driver", "tEnd", "1e-3"},
		{"driver", "nOut", "40"},
	}})
	gen := lookupDriver[*components.IgnitionDriver](t, fg)
	interp := lookupDriver[*components.IgnitionDriver](t, fi)

	if relDiff := math.Abs(gen.IgnitionDelay-interp.IgnitionDelay) / interp.IgnitionDelay; relDiff > 1e-2 {
		t.Errorf("ignition delay: kernels %v vs interpreted %v (rel diff %v)",
			gen.IgnitionDelay, interp.IgnitionDelay, relDiff)
	}
	tg := gen.Temps[len(gen.Temps)-1]
	ti := interp.Temps[len(interp.Temps)-1]
	if math.Abs(tg-ti) > 1.0 {
		t.Errorf("final T: kernels %v vs interpreted %v", tg, ti)
	}
	pg := gen.Pressures[len(gen.Pressures)-1]
	pi := interp.Pressures[len(interp.Pressures)-1]
	if math.Abs(pg-pi)/pi > 1e-3 {
		t.Errorf("final P: kernels %v vs interpreted %v", pg, pi)
	}
}

// TestFlameGoldenKernelsVsInterpreted runs the 2-step reaction-diffusion
// flame on both engines and requires the hot-spot maximum temperature
// and the ambient minimum to agree within solver tolerance.
func TestFlameGoldenKernelsVsInterpreted(t *testing.T) {
	fg, fi := runEngines(t, RunRequest{Problem: "flame", Params: rdParams()})
	gen := lookupDriver[*components.RDDriver](t, fg)
	interp := lookupDriver[*components.RDDriver](t, fi)

	if rel := math.Abs(gen.TMax-interp.TMax) / interp.TMax; rel > 1e-6 {
		t.Errorf("flame TMax: kernels %v vs interpreted %v (rel diff %v)", gen.TMax, interp.TMax, rel)
	}
	if math.Abs(gen.TMin-interp.TMin) > 1e-3 {
		t.Errorf("flame TMin: kernels %v vs interpreted %v", gen.TMin, interp.TMin)
	}
}

// cvodeStats digs the accumulated solver statistics out of an assembly.
func cvodeStats(t *testing.T, f *cca.Framework) cvode.Stats {
	t.Helper()
	comp, err := f.Lookup("cvode")
	if err != nil {
		t.Fatal(err)
	}
	return comp.(*components.CvodeComponent).TotalStats()
}

// TestFlameGoldenKernels4Ranks runs the flame on a 4-rank simulated
// cluster: the decomposed run must reproduce the
// serial TMax bit for bit and every rank must be FD-free (worker
// integrators take the analytic Jacobian from the same RHSPort.JacFn
// as the serial solver).
func TestFlameGoldenKernels4Ranks(t *testing.T) {
	serial, _, err := RunReactionDiffusion(nil, rdParams()...)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	tmax := math.Inf(-1)
	var ranks []cvode.Stats
	res := cca.RunSCMD(4, mpi.CPlantModel, Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: rdParams()}); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		comp, _ := f.Lookup("driver")
		dr := comp.(*components.RDDriver)
		cv, _ := f.Lookup("cvode")
		mu.Lock()
		if dr.TMax > tmax {
			tmax = dr.TMax
		}
		ranks = append(ranks, cv.(*components.CvodeComponent).TotalStats())
		mu.Unlock()
		return nil
	})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if tmax != serial.TMax {
		t.Errorf("4-rank kernel flame TMax %v != serial %v", tmax, serial.TMax)
	}
	var totalAnalytic int
	for r, st := range ranks {
		if st.JacBuildsFD != 0 {
			t.Errorf("rank %d: %d FD Jacobian sweeps on the kernel path, want 0", r, st.JacBuildsFD)
		}
		totalAnalytic += st.JacBuildsAnalytic
	}
	if totalAnalytic == 0 {
		t.Error("no analytic Jacobian builds across any rank")
	}
}
