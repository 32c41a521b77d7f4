package core

import (
	"math"
	"sync"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/cvode"
	"ccahydro/internal/mpi"
)

// Golden trajectory tests for the generated chemistry kernels: the
// kernel engine (default) and the interpreted engine with
// finite-difference Jacobians must tell the same physics story within
// solver tolerance, and the kernel paths must build every Jacobian
// analytically — zero FD sweeps.

// cvodeStats digs the accumulated solver statistics out of an assembly.
func cvodeStats(t *testing.T, f *cca.Framework) cvode.Stats {
	t.Helper()
	comp, err := f.Lookup("cvode")
	if err != nil {
		t.Fatal(err)
	}
	return comp.(*components.CvodeComponent).TotalStats()
}

// requireAnalyticOnly asserts the run resolved the analytic Jacobian on
// every build: the ISSUE acceptance criterion for default kernel paths.
func requireAnalyticOnly(t *testing.T, label string, st cvode.Stats) {
	t.Helper()
	if st.JacBuildsAnalytic == 0 {
		t.Errorf("%s: no analytic Jacobian builds recorded (kernel path not taken)", label)
	}
	if st.JacBuildsFD != 0 {
		t.Errorf("%s: %d finite-difference Jacobian sweeps on a kernel path, want 0", label, st.JacBuildsFD)
	}
}

func runIgnitionWithFramework(t *testing.T, params ...Param) (*components.IgnitionDriver, *cca.Framework) {
	t.Helper()
	f := cca.NewFramework(Repo(), nil)
	if err := AssembleRequest(f, RunRequest{Problem: "ignition", Params: params}); err != nil {
		t.Fatal(err)
	}
	if err := f.Go("driver", "go"); err != nil {
		t.Fatal(err)
	}
	comp, err := f.Lookup("driver")
	if err != nil {
		t.Fatal(err)
	}
	return comp.(*components.IgnitionDriver), f
}

// TestIgnitionGoldenKernelsVsInterpreted runs the 0D ignition problem
// on both engines. The generated kernel with its analytic rigid-vessel
// Jacobian and the interpreted tables with FD Jacobians take different
// step sequences, so trajectories agree to solver tolerance, not bit
// for bit: the ignition delay and the final equilibrium state are the
// physically meaningful invariants.
func TestIgnitionGoldenKernelsVsInterpreted(t *testing.T) {
	base := []Param{
		{"driver", "tEnd", "1e-3"},
		{"driver", "nOut", "40"},
	}
	gen, fg := runIgnitionWithFramework(t, base...)
	interp, fi := runIgnitionWithFramework(t, append(base, Param{"chem", "kernels", "off"})...)

	// Kernel run: all-analytic. Interpreted run: all-FD.
	requireAnalyticOnly(t, "ignition kernels=auto", cvodeStats(t, fg))
	sti := cvodeStats(t, fi)
	if sti.JacBuildsAnalytic != 0 || sti.JacBuildsFD == 0 {
		t.Errorf("ignition kernels=off: want pure FD Jacobians, got analytic=%d fd=%d",
			sti.JacBuildsAnalytic, sti.JacBuildsFD)
	}

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
// flame on both engines and requires the hot-spot maximum temperature to
// agree within solver tolerance, with zero FD sweeps on the kernel path.
func TestFlameGoldenKernelsVsInterpreted(t *testing.T) {
	gen, fg, err := RunReactionDiffusion(nil, rdParams()...)
	if err != nil {
		t.Fatal(err)
	}
	interp, fi, err := RunReactionDiffusion(nil, rdParams(Param{"chem", "kernels", "off"})...)
	if err != nil {
		t.Fatal(err)
	}

	requireAnalyticOnly(t, "flame kernels=auto", cvodeStats(t, fg))
	sti := cvodeStats(t, fi)
	if sti.JacBuildsAnalytic != 0 || sti.JacBuildsFD == 0 {
		t.Errorf("flame kernels=off: want pure FD Jacobians, got analytic=%d fd=%d",
			sti.JacBuildsAnalytic, sti.JacBuildsFD)
	}
	// The analytic path should also cost far fewer RHS evaluations: each
	// FD build burns dim+1 of them.
	stg := cvodeStats(t, fg)
	if stg.RHSEvals >= sti.RHSEvals {
		t.Errorf("kernel path RHS evals %d >= interpreted+FD %d; analytic Jacobian should eliminate sweeps",
			stg.RHSEvals, sti.RHSEvals)
	}

	if rel := math.Abs(gen.TMax-interp.TMax) / interp.TMax; rel > 1e-6 {
		t.Errorf("flame TMax: kernels %v vs interpreted %v (rel diff %v)", gen.TMax, interp.TMax, rel)
	}
	if math.Abs(gen.TMin-interp.TMin) > 1e-3 {
		t.Errorf("flame TMin: kernels %v vs interpreted %v", gen.TMin, interp.TMin)
	}
}

// TestFlameGoldenKernels4Ranks repeats the kernel-engine flame on a
// 4-rank simulated cluster: the decomposed run must reproduce the
// serial TMax bit for bit and every rank must be FD-free (worker
// integrators resolve the analytic Jacobian through the same port
// probe as the serial solver).
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
