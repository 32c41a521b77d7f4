package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
)

// The scaling experiments (Table 5, Figs 8 and 9) ran on the paper's
// CPlant cluster. This reproduction runs the flame built-in itself —
// the real components, domain decomposition, ghost messages and
// reductions — on P in-process ranks. Each rank's virtual clock is
// charged by the components from deterministic work counts (CVODE
// right-hand sides and Jacobians, RKC stage cells) at the committed
// rates of their cost table, and by the network model for every
// message, so the figures repeat bit for bit on any host. The mesh is
// uniform (maxLevels 1, as in the paper's scaling runs) and the patches
// are balanced by cell count: a rank owning a hot spot integrates
// stiffer chemistry than one owning cold gas.

// flameDx is the mesh spacing of the scaling runs: the paper's 10 mm
// domain over 100 cells.
const flameDx = 1e-4

// RunFlame runs the flame built-in (5 steps of 1e-7 s) on p ranks over
// an nx×ny mesh of flameDx cells under the network model, and returns
// each rank's virtual time in seconds.
func RunFlame(p, nx, ny int, model mpi.NetworkModel) ([]float64, error) {
	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: fmt.Sprint(nx)},
		{Instance: "grace", Key: "ny", Value: fmt.Sprint(ny)},
		{Instance: "grace", Key: "lx", Value: fmt.Sprint(float64(nx) * flameDx)},
		{Instance: "grace", Key: "ly", Value: fmt.Sprint(float64(ny) * flameDx)},
		{Instance: "grace", Key: "maxLevels", Value: "1"},
	}
	errs := make([]error, p)
	world := mpi.Run(p, model, func(comm *mpi.Comm) {
		_, _, errs[comm.Rank()] = core.RunReactionDiffusion(comm, params...)
	})
	times := make([]float64, p)
	for r := range times {
		if errs[r] != nil {
			return nil, fmt.Errorf("flame %dx%d on %d ranks, rank %d: %w", nx, ny, p, r, errs[r])
		}
		times[r] = world.RankTime(r)
	}
	return times, nil
}

// runFlameMax is RunFlame's simulated job time: the slowest rank's.
func runFlameMax(p, nx, ny int, model mpi.NetworkModel) (float64, error) {
	times, err := RunFlame(p, nx, ny, model)
	if err != nil {
		return 0, err
	}
	mx := 0.0
	for _, t := range times {
		mx = math.Max(mx, t)
	}
	return mx, nil
}

// weakMesh returns the global mesh that gives each of p ranks an n×n
// block: the most square px×py = p grid of blocks.
func weakMesh(n, p int) (nx, ny int) {
	px, py := factorPair(p)
	return n * px, n * py
}

// factorPair splits P into the most square px*py = P.
func factorPair(p int) (int, int) {
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return p / best, best
}

// Table5Stats holds the paper's Table 5 row: run-time statistics over
// machine sizes for one per-processor problem size.
type Table5Stats struct {
	PerProcN     int
	Times        []float64
	Mean, Median float64
	Sigma        float64
}

// RunTable5 runs the constant-per-processor-workload study (Fig 8 data,
// Table 5 statistics). ps lists the machine sizes (paper: up to 48).
func RunTable5(sizes, ps []int) ([]Table5Stats, error) {
	var out []Table5Stats
	for _, n := range sizes {
		st := Table5Stats{PerProcN: n}
		for _, p := range ps {
			nx, ny := weakMesh(n, p)
			t, err := runFlameMax(p, nx, ny, mpi.CPlantModel)
			if err != nil {
				return nil, err
			}
			st.Times = append(st.Times, t)
		}
		st.Mean, st.Median, st.Sigma = stats(st.Times)
		out = append(out, st)
	}
	return out, nil
}

// Fig9Point is one strong-scaling measurement.
type Fig9Point struct {
	P          int
	Time       float64
	Ideal      float64
	Efficiency float64
}

// RunFig9 runs the constant-global-problem study for one globalN² mesh
// on the network model. Ideal is the first point's time scaled by P.
func RunFig9(globalN int, ps []int, model mpi.NetworkModel) ([]Fig9Point, error) {
	var out []Fig9Point
	var t1 float64
	for _, p := range ps {
		t, err := runFlameMax(p, globalN, globalN, model)
		if err != nil {
			return nil, err
		}
		if t1 == 0 {
			t1 = t * float64(p) // if ps does not start at 1
		}
		pt := Fig9Point{P: p, Time: t, Ideal: t1 / float64(p)}
		pt.Efficiency = pt.Ideal / t
		out = append(out, pt)
	}
	return out, nil
}

func stats(xs []float64) (mean, median, sigma float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sigma += (x - mean) * (x - mean)
	}
	sigma = math.Sqrt(sigma / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		median = sorted[m]
	} else {
		median = 0.5 * (sorted[m-1] + sorted[m])
	}
	return mean, median, sigma
}

// PrintTable5 renders the weak-scaling statistics like the paper.
func PrintTable5(w io.Writer, rows []Table5Stats, ps []int) {
	fmt.Fprintf(w, "Table 5: reaction-diffusion run-time statistics, constant per-processor workload\n")
	fmt.Fprintf(w, "(simulated CPlant; machine sizes %v; 5 steps of 1e-7 s)\n\n", ps)
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "Problem Size", "Mean(s)", "Median(s)", "Sigma(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%3dx%-10d %10.3f %10.3f %10.3f\n", r.PerProcN, r.PerProcN, r.Mean, r.Median, r.Sigma)
	}
	fmt.Fprintf(w, "\nPaper reference (433 MHz Alphas): 50x50: 43.94/44.4/2.72; 100x100: 161.7/159.6/5.81; 175x175: 507.1/506.05/20.57.\n")
	fmt.Fprintf(w, "Expected shape: times scale with per-processor size and stay flat in P (sigma small vs mean).\n")
}

// PrintFig8 renders the weak-scaling series.
func PrintFig8(w io.Writer, rows []Table5Stats, ps []int) {
	fmt.Fprintf(w, "Fig 8: run time vs machine size, constant per-processor workload\n\n")
	fmt.Fprintf(w, "%6s", "P")
	for _, r := range rows {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("%dx%d (s)", r.PerProcN, r.PerProcN))
	}
	fmt.Fprintln(w)
	for i, p := range ps {
		fmt.Fprintf(w, "%6d", p)
		for _, r := range rows {
			fmt.Fprintf(w, " %12.3f", r.Times[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nExpected shape: flat lines — growing the machine with the problem leaves run time unchanged.\n")
}

// PrintFig9 renders the strong-scaling comparison.
func PrintFig9(w io.Writer, series map[int][]Fig9Point) {
	fmt.Fprintf(w, "Fig 9: strong scaling vs ideal, constant global problem size\n\n")
	keys := make([]int, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, n := range keys {
		fmt.Fprintf(w, "mesh %dx%d:\n", n, n)
		fmt.Fprintf(w, "%6s %12s %12s %12s\n", "P", "Time(s)", "Ideal(s)", "Efficiency")
		for _, pt := range series[n] {
			fmt.Fprintf(w, "%6d %12.3f %12.3f %11.1f%%\n", pt.P, pt.Time, pt.Ideal, 100*pt.Efficiency)
		}
	}
	fmt.Fprintf(w, "\nPaper reference: 350x350 follows ideal closely; 200x200 degrades, worst 73%% at P=48 (29x29 per rank).\n")
}

// NetSweepResult compares strong-scaling efficiency across network
// models — the paper ran on two fabrics (Myrinet CPlant for the
// scaling study, 100bT fast Ethernet for the long flame run), and the
// fabric choice moves the efficiency crossover.
type NetSweepResult struct {
	Label  string
	Model  mpi.NetworkModel
	Points []Fig9Point
}

// RunNetSweep runs the strong-scaling curve for each named network.
func RunNetSweep(globalN int, ps []int) ([]NetSweepResult, error) {
	nets := []NetSweepResult{
		{Label: "CPlant Myrinet (60us, 132MB/s)", Model: mpi.CPlantModel},
		{Label: "100bT Ethernet (80us, 11MB/s)", Model: mpi.FastEthernetModel},
	}
	for i := range nets {
		pts, err := RunFig9(globalN, ps, nets[i].Model)
		if err != nil {
			return nil, err
		}
		nets[i].Points = pts
	}
	return nets, nil
}

// PrintNetSweep renders the comparison.
func PrintNetSweep(w io.Writer, globalN int, sweeps []NetSweepResult) {
	fmt.Fprintf(w, "Network ablation: strong scaling of the %dx%d mesh on the paper's two fabrics\n\n", globalN, globalN)
	fmt.Fprintf(w, "%6s", "P")
	for _, s := range sweeps {
		fmt.Fprintf(w, " %14s", s.Label[:14])
	}
	fmt.Fprintln(w)
	if len(sweeps) == 0 {
		return
	}
	for i := range sweeps[0].Points {
		fmt.Fprintf(w, "%6d", sweeps[0].Points[i].P)
		for _, s := range sweeps {
			fmt.Fprintf(w, " %13.1f%%", 100*s.Points[i].Efficiency)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nExpected shape: the slower fabric loses efficiency sooner (larger beta term on the ghost volume).\n")
}
