package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"ccahydro/internal/chem"
)

// The chemistry-kernel experiment quantifies what the chemgen code
// generator buys over the interpreted Reaction-table walk, per
// mechanism: RHS ns/op interpreted vs generated, and Jacobian build
// cost finite-difference vs analytic (the FD build replays cvode's
// dim+1 RHS sweeps).

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

// ChemReport is the BENCH_chem.json artifact.
type ChemReport struct {
	Mechanisms []ChemMechRow `json:"mechanisms"`
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

// BuildChemReport runs the full chemistry-kernel study.
func BuildChemReport(quick bool) (*ChemReport, error) {
	rows, err := RunChemMicro(quick)
	if err != nil {
		return nil, err
	}
	return &ChemReport{Mechanisms: rows}, nil
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
}
