package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/obs"
)

// The chemistry-kernel experiment quantifies what the chemgen code
// generator buys over the interpreted Reaction-table walk:
//
//  1. Microbenchmarks per mechanism: RHS ns/op interpreted vs
//     generated, and Jacobian build cost finite-difference vs analytic
//     (the FD build replays cvode's dim+1 RHS sweeps).
//  2. The flame benchmark: the 2D reaction-diffusion problem run
//     end-to-end on both engines. Solver work counters (RHS/Jacobian
//     evaluations per step) are deterministic for a fixed assembly;
//     wall seconds are host-dependent and reported for the speedup
//     headline.

// ChemMechRow is one mechanism's microbenchmark line.
type ChemMechRow struct {
	Mechanism     string  `json:"mechanism"`
	Species       int     `json:"species"`
	Reactions     int     `json:"reactions"`
	InterpRHSNs   float64 `json:"interpretedRHSNsPerOp"`
	KernelRHSNs   float64 `json:"kernelRHSNsPerOp"`
	RHSSpeedup    float64 `json:"rhsSpeedup"`
	FDJacNs       float64 `json:"fdJacobianNsPerBuild"`
	AnalyticJacNs float64 `json:"analyticJacobianNsPerBuild"`
	JacSpeedup    float64 `json:"jacobianSpeedup"`
}

// ChemFlameRun is one engine's flame benchmark: deterministic solver
// counters plus host wall seconds.
type ChemFlameRun struct {
	Engine            string  `json:"engine"` // "interpreted+fd" or "kernels+analytic"
	FlameSteps        int     `json:"flameSteps"`
	SolverSteps       int     `json:"solverSteps"`
	RHSEvals          int     `json:"rhsEvals"`
	JacEvals          int     `json:"jacEvals"`
	JacBuildsAnalytic int     `json:"jacBuildsAnalytic"`
	JacBuildsFD       int     `json:"jacBuildsFD"`
	NewtonIters       int     `json:"newtonIters"`
	RHSEvalsPerStep   float64 `json:"rhsEvalsPerFlameStep"`
	ChemSeconds       float64 `json:"chemPhaseSeconds"`
	TotalSeconds      float64 `json:"endToEndSeconds"`
	SecondsPerStep    float64 `json:"secondsPerFlameStep"`
}

// ChemReport is the BENCH_chem.json artifact.
type ChemReport struct {
	Mechanisms []ChemMechRow  `json:"mechanisms"`
	Flame      []ChemFlameRun `json:"flame"`
	// ChemSpeedup is the headline: interpreted+FD chemistry-phase
	// seconds over kernels+analytic on the same flame (must exceed 1.5).
	ChemSpeedup float64 `json:"flameChemSpeedup"`
	// RHSEvalRatio is deterministic: interpreted+FD solver RHS
	// evaluations over the analytic path's (FD sweeps eliminated).
	RHSEvalRatio float64 `json:"flameRHSEvalRatio"`
}

// chemBenchState is the shared microbenchmark state: a hot, partially
// deterministic composition exercising every species.
func chemBenchState(m *chem.Mechanism) (T, P float64, Y []float64) {
	T, P = 1500, chem.PAtm
	Y = make([]float64, m.NumSpecies())
	for i := range Y {
		Y[i] = float64(i + 1)
	}
	chem.NormalizeY(Y)
	return
}

// bestOf times fn (which runs iters inner iterations) three times and
// returns the fastest per-iteration nanoseconds.
func bestOf(iters int, fn func(iters int)) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		fn(iters)
		if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
			best = ns
		}
	}
	return best
}

// RunChemMicro measures the per-mechanism microbenchmarks.
func RunChemMicro(quick bool) ([]ChemMechRow, error) {
	rhsIters, jacIters := 20000, 2000
	if quick {
		rhsIters, jacIters = 2000, 200
	}
	var rows []ChemMechRow
	for _, m := range chem.AllMechanisms() {
		k := chem.KernelFor(m.Name)
		if k == nil {
			return nil, fmt.Errorf("chem bench: no generated kernel for %q", m.Name)
		}
		T, P, Y := chemBenchState(m)
		n := m.NumSpecies()
		dim := n + 1
		ws := chem.NewSourceWorkspace(m)
		dY := make([]float64, n)
		jac := make([]float64, dim*dim)

		row := ChemMechRow{Mechanism: m.Name, Species: n, Reactions: m.NumReactions()}
		row.InterpRHSNs = bestOf(rhsIters, func(it int) {
			for i := 0; i < it; i++ {
				m.ConstPressureSource(T, P, Y, dY, ws)
			}
		})
		row.KernelRHSNs = bestOf(rhsIters, func(it int) {
			for i := 0; i < it; i++ {
				k.ConstPressureSource(T, P, Y, dY)
			}
		})
		row.RHSSpeedup = row.InterpRHSNs / row.KernelRHSNs

		// FD build: cvode's dense sweep, dim+1 RHS evaluations through
		// the interpreted engine (what the fallback path pays per build).
		x := make([]float64, dim)
		x[0] = T
		copy(x[1:], Y)
		f0 := make([]float64, dim)
		f1 := make([]float64, dim)
		xp := make([]float64, dim)
		sqrtEps := math.Sqrt(2.22e-16)
		row.FDJacNs = bestOf(jacIters, func(it int) {
			for i := 0; i < it; i++ {
				f0[0] = m.ConstPressureSource(x[0], P, x[1:], f0[1:], ws)
				for j := 0; j < dim; j++ {
					h := sqrtEps * math.Max(math.Abs(x[j]), 1e-5)
					copy(xp, x)
					xp[j] += h
					f1[0] = m.ConstPressureSource(xp[0], P, xp[1:], f1[1:], ws)
					inv := 1 / h
					for r := 0; r < dim; r++ {
						jac[r*dim+j] = (f1[r] - f0[r]) * inv
					}
				}
			}
		})
		row.AnalyticJacNs = bestOf(jacIters, func(it int) {
			for i := 0; i < it; i++ {
				k.ConstPressureJacobian(T, P, Y, jac)
			}
		})
		row.JacSpeedup = row.FDJacNs / row.AnalyticJacNs
		rows = append(rows, row)
	}
	return rows, nil
}

// chemFlameParams pins the flame benchmark assembly.
func chemFlameParams(steps int, kernels string) []core.Param {
	return []core.Param{
		{Instance: "grace", Key: "nx", Value: "48"},
		{Instance: "grace", Key: "ny", Value: "48"},
		{Instance: "grace", Key: "maxLevels", Value: "2"},
		{Instance: "driver", Key: "steps", Value: fmt.Sprint(steps)},
		{Instance: "driver", Key: "dt", Value: "1e-7"},
		{Instance: "driver", Key: "regridEvery", Value: "1"},
		{Instance: "chem", Key: "kernels", Value: kernels},
	}
}

// runChemFlame runs the flame once on the given engine and collects
// counters plus wall seconds. The chemistry-phase split comes from an
// instrumented second run (the port-call interceptor times the
// driver's AdvanceChemistry wire); end-to-end seconds come from the
// plain run so interceptor overhead never touches them.
func runChemFlame(steps int, kernels, engine string) (ChemFlameRun, error) {
	run := ChemFlameRun{Engine: engine, FlameSteps: steps}

	dr, f, err := core.RunReactionDiffusion(nil, chemFlameParams(steps, kernels)...)
	if err != nil {
		return run, err
	}
	for _, s := range dr.StepSeconds {
		run.TotalSeconds += s
	}
	run.SecondsPerStep = run.TotalSeconds / float64(steps)
	comp, err := f.Lookup("cvode")
	if err != nil {
		return run, err
	}
	st := comp.(*components.CvodeComponent).TotalStats()
	run.SolverSteps = st.Steps
	run.RHSEvals = st.RHSEvals
	run.JacEvals = st.JacEvals
	run.JacBuildsAnalytic = st.JacBuildsAnalytic
	run.JacBuildsFD = st.JacBuildsFD
	run.NewtonIters = st.NewtonIters
	run.RHSEvalsPerStep = float64(st.RHSEvals) / float64(steps)

	// Instrumented pass for the chemistry-phase seconds.
	group := obs.NewGroup(1)
	fr := cca.NewFramework(core.Repo(), nil)
	fr.SetObservability(group.Rank(0))
	if err := core.AssembleRequest(fr, core.RunRequest{Problem: "flame", Params: chemFlameParams(steps, kernels)}); err != nil {
		return run, err
	}
	if err := fr.Go("driver", "go"); err != nil {
		return run, err
	}
	for _, h := range group.MergedSnapshot().Histograms {
		if strings.Contains(h.Name, `port="cellChemistry"`) && strings.Contains(h.Name, `method="AdvanceChemistry"`) {
			run.ChemSeconds += h.SumSeconds
		}
	}
	return run, nil
}

// BuildChemReport runs the full chemistry-kernel study.
func BuildChemReport(quick bool) (*ChemReport, error) {
	rep := &ChemReport{}
	rows, err := RunChemMicro(quick)
	if err != nil {
		return nil, err
	}
	rep.Mechanisms = rows

	steps := 4
	if quick {
		steps = 2
	}
	interp, err := runChemFlame(steps, "off", "interpreted+fd")
	if err != nil {
		return nil, err
	}
	gen, err := runChemFlame(steps, "on", "kernels+analytic")
	if err != nil {
		return nil, err
	}
	rep.Flame = []ChemFlameRun{interp, gen}
	rep.ChemSpeedup = interp.ChemSeconds / gen.ChemSeconds
	rep.RHSEvalRatio = float64(interp.RHSEvals) / float64(gen.RHSEvals)
	return rep, nil
}

// PrintChemReport renders the study.
func PrintChemReport(w io.Writer, rep *ChemReport) {
	fmt.Fprintf(w, "Chemistry kernels: generated + analytic Jacobian vs interpreted + FD\n\n")
	fmt.Fprintf(w, "%-22s %4s %4s %10s %10s %6s %12s %12s %6s\n",
		"mechanism", "nsp", "nrx", "interp(ns)", "kernel(ns)", "rhs x", "fd-jac(ns)", "an-jac(ns)", "jac x")
	for _, r := range rep.Mechanisms {
		fmt.Fprintf(w, "%-22s %4d %4d %10.0f %10.0f %6.2f %12.0f %12.0f %6.2f\n",
			r.Mechanism, r.Species, r.Reactions,
			r.InterpRHSNs, r.KernelRHSNs, r.RHSSpeedup,
			r.FDJacNs, r.AnalyticJacNs, r.JacSpeedup)
	}
	fmt.Fprintf(w, "\nFlame benchmark (48x48, 2 levels, dt=1e-7):\n\n")
	fmt.Fprintf(w, "%-18s %6s %9s %8s %8s %8s %11s %10s %10s\n",
		"engine", "steps", "rhsEvals", "jacFD", "jacAn", "newton", "rhs/step", "chem(s)", "total(s)")
	for _, r := range rep.Flame {
		fmt.Fprintf(w, "%-18s %6d %9d %8d %8d %8d %11.0f %10.4f %10.4f\n",
			r.Engine, r.FlameSteps, r.RHSEvals, r.JacBuildsFD, r.JacBuildsAnalytic,
			r.NewtonIters, r.RHSEvalsPerStep, r.ChemSeconds, r.TotalSeconds)
	}
	fmt.Fprintf(w, "\nflame chemistry-phase speedup: %.2fx (acceptance: > 1.5x)\n", rep.ChemSpeedup)
	fmt.Fprintf(w, "flame solver RHS-eval ratio:   %.2fx (deterministic; FD sweeps eliminated)\n", rep.RHSEvalRatio)
}
