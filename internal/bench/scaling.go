package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
	"ccahydro/internal/transport"
)

// The scaling experiments (Table 5, Figs 8 and 9) ran on the paper's
// CPlant cluster. This reproduction executes the same SPMD code path —
// the real domain decomposition, the real ghost-cell messages, the
// real reductions — on the in-process cluster, with per-cell compute
// charged to each rank's virtual clock at rates *calibrated by running
// this repository's actual physics kernels*. Wall-clock on the test
// host cannot exhibit parallel speedup (single CPU), but the virtual
// clock obeys the same cost model the paper's machines do, including
// the chemistry-driven load imbalance between ranks that own hot-spot
// cells and ranks that own cold gas.

// CellCosts holds the calibrated per-cell compute rates (seconds).
type CellCosts struct {
	// ColdChem / HotChem: one macro step of implicit chemistry for a
	// cold (300 K) and a hot (reacting) cell.
	ColdChem, HotChem float64
	// DiffStage: one RKC stage evaluation of the diffusion RHS, per cell.
	DiffStage float64
	// DMax is the largest mixture diffusivity (m^2/s), used to size
	// the RKC stage count exactly as MaxDiffCoeffEvaluator does.
	DMax float64
	// HotT separates hot from cold cells.
	HotT float64
}

// Calibrate measures CellCosts by running the real kernels.
func Calibrate() (CellCosts, error) {
	mech := chem.H2Air()
	ws := chem.NewSourceWorkspace(mech)
	n := mech.NumSpecies()
	rhs := func(_ float64, y, ydot []float64) {
		T := y[0]
		if T < 200 {
			T = 200
		}
		ydot[0] = mech.ConstPressureSource(T, chem.PAtm, y[1:1+n], ydot[1:1+n], ws)
	}
	solver := cvode.New(n+1, rhs, cvode.Options{RelTol: 1e-8, AbsTol: 1e-12})

	chemCost := func(T0 float64, reps int) (float64, error) {
		y0 := make([]float64, n+1)
		y0[0] = T0
		copy(y0[1:], mech.StoichiometricH2Air())
		start := time.Now()
		for i := 0; i < reps; i++ {
			solver.Init(0, y0)
			if err := solver.Integrate(1e-7); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() / float64(reps), nil
	}
	cold, err := chemCost(300, 200)
	if err != nil {
		return CellCosts{}, err
	}
	hot, err := chemCost(1500, 200)
	if err != nil {
		return CellCosts{}, err
	}

	// Diffusion stage cost: one whole-patch evaluation of a 32x32 patch through the
	// real transport model.
	tm := transport.New(mech)
	h := amr.NewHierarchy(amr.NewBox(0, 0, 31, 31), 2, 1, 1)
	d := field.New("phi", h, 1+n, 2, nil)
	pd := d.LocalPatches(0)[0]
	Y := mech.StoichiometricH2Air()
	g := pd.GrownBox()
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			pd.Set(0, i, j, 300+1200*math.Exp(-float64((i-16)*(i-16)+(j-16)*(j-16))/64))
			for k, yk := range Y {
				pd.Set(1+k, i, j, yk)
			}
		}
	}
	out := field.NewPatchData(pd.Patch, 1+n, 2)
	dp := &diffKernel{tm: tm, mech: mech}
	start := time.Now()
	const reps = 5
	for r := 0; r < reps; r++ {
		dp.eval(pd, out, 1e-4, 1e-4)
	}
	diffStage := time.Since(start).Seconds() / float64(reps) / float64(pd.Interior().NumCells())

	// Largest diffusivity at flame temperature.
	X := make([]float64, n)
	D := make([]float64, n)
	tm.Evaluate(1800, chem.PAtm, Y, X, D)
	dmax := 0.0
	for _, v := range D {
		if v > dmax {
			dmax = v
		}
	}
	return CellCosts{
		ColdChem: cold, HotChem: hot,
		DiffStage: diffStage,
		DMax:      dmax,
		HotT:      800,
	}, nil
}

// diffKernel reuses the DiffusionPhysics math without the framework
// (calibration only; the experiments charge its measured cost).
type diffKernel struct {
	tm   *transport.Model
	mech *chem.Mechanism
}

func (dk *diffKernel) eval(pd, out *field.PatchData, dx, dy float64) {
	n := dk.mech.NumSpecies()
	X := make([]float64, n)
	D := make([]float64, n)
	Y := make([]float64, n)
	b := pd.Interior()
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			T := pd.At(0, i, j)
			for k := 0; k < n; k++ {
				Y[k] = pd.At(1+k, i, j)
			}
			lam, rho := dk.tm.Evaluate(T, chem.PAtm, Y, X, D)
			lap := (pd.At(0, i+1, j) - 2*T + pd.At(0, i-1, j)) / (dx * dx)
			out.Set(0, i, j, lam*lap/(rho*dk.mech.CpMass(T, Y)))
			for k := 0; k < n; k++ {
				lapY := (pd.At(1+k, i+1, j) - 2*pd.At(1+k, i, j) + pd.At(1+k, i-1, j)) / (dx * dx)
				out.Set(1+k, i, j, D[k]*lapY)
			}
		}
	}
}

// ScalingConfig describes one simulated-cluster run.
type ScalingConfig struct {
	// P is the rank count.
	P int
	// PerProcN sets weak scaling: each rank owns PerProcN x PerProcN
	// cells and the global mesh grows with P. Zero selects strong
	// scaling with the fixed GlobalNx x GlobalNy mesh.
	PerProcN int
	// GlobalNx, GlobalNy for strong scaling.
	GlobalNx, GlobalNy int
	// Steps and Dt follow the paper: 5 steps of 1e-7 s.
	Steps int
	Dt    float64
	// Model is the network cost model (default CPlant).
	Model mpi.NetworkModel
	// Costs are the calibrated rates.
	Costs CellCosts
	// NComp is the per-point variable count (paper: 9).
	NComp int
	// Dx is the physical mesh spacing (paper: 10 mm / 100 = 1e-4 m).
	Dx float64
	// Blocking disables the exchange/compute overlap: every ghost
	// exchange completes before any stage compute is charged (the
	// pre-asynchronous baseline). The default overlapped mode charges
	// the interior compute between ExchangeGhostsStart and Finish, so
	// message flight hides behind it exactly as in the drivers.
	Blocking bool
}

func (c *ScalingConfig) defaults() {
	if c.Steps == 0 {
		c.Steps = 5
	}
	if c.Dt == 0 {
		c.Dt = 1e-7
	}
	if c.Model == (mpi.NetworkModel{}) {
		c.Model = mpi.CPlantModel
	}
	if c.NComp == 0 {
		c.NComp = 10
	}
	if c.Dx == 0 {
		c.Dx = 1e-4
	}
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

// ScalingResult reports one run.
type ScalingResult struct {
	P            int
	GlobalNx     int
	GlobalNy     int
	CellsPerRank int
	// Time is the simulated run time (max rank virtual time).
	Time float64
	// RankTimes per rank.
	RankTimes []float64
	// Stages is the RKC stage count used per step.
	Stages int
	// Sends / WordsSent total the point-to-point traffic over all ranks
	// (collective-internal messages included).
	Sends, WordsSent int
	// CommSeconds is the largest per-rank virtual time lost to message
	// stalls; HiddenSeconds the largest per-rank flight time hidden
	// behind compute via the nonblocking engine.
	CommSeconds, HiddenSeconds float64
	// MsgsPerExchange is this run's coalesced send count for one level-0
	// ghost exchange, summed over ranks; NeighborRankSum the matching
	// sum of per-rank neighbor counts (coalescing invariant:
	// MsgsPerExchange <= NeighborRankSum). RegionsPerExchange is the
	// uncoalesced region count — the old per-region message cost.
	MsgsPerExchange, NeighborRankSum, RegionsPerExchange int
}

// RunScaling executes one weak- or strong-scaling point.
func RunScaling(cfg ScalingConfig) ScalingResult {
	cfg.defaults()
	var gnx, gny int
	if cfg.PerProcN > 0 {
		px, py := factorPair(cfg.P)
		gnx, gny = cfg.PerProcN*px, cfg.PerProcN*py
	} else {
		gnx, gny = cfg.GlobalNx, cfg.GlobalNy
		if gny == 0 {
			gny = gnx
		}
	}
	// RKC stage count from the same bound MaxDiffCoeffEvaluator uses.
	rho := 4 * cfg.Costs.DMax * (2 / (cfg.Dx * cfg.Dx))
	stages := 1 + int(math.Sqrt(cfg.Dt*rho/0.653))
	if stages < 2 {
		stages = 2
	}

	res := ScalingResult{P: cfg.P, GlobalNx: gnx, GlobalNy: gny, Stages: stages}
	res.RankTimes = make([]float64, cfg.P)

	domain := amr.NewBox(0, 0, gnx-1, gny-1)
	lx := cfg.Dx * float64(gnx)
	ly := cfg.Dx * float64(gny)
	sigma2 := (0.06 * lx) * (0.06 * lx)
	icTemp := func(i, j int) float64 {
		x := (float64(i) + 0.5) * cfg.Dx
		y := (float64(j) + 0.5) * cfg.Dx
		T := 300.0
		for s := 0; s < 3; s++ {
			cx, cy := hotSpotFrac[s][0]*lx, hotSpotFrac[s][1]*ly
			r2 := (x-cx)*(x-cx) + (y-cy)*(y-cy)
			T += 1500 * math.Exp(-r2/(2*sigma2))
		}
		return T
	}
	// The paper's load balancing: decompose into several patches per
	// rank and distribute them greedily, weighting each patch by its
	// chemistry workload (hot cells are more expensive). Sampling every
	// 4th cell keeps the workload estimate cheap.
	blockCells := gnx * gny / (4 * cfg.P)
	if blockCells < 64 {
		blockCells = 64
	}
	blocks := amr.SplitLargeBoxes([]amr.Box{domain}, blockCells)
	work := func(b amr.Box, _ int) float64 {
		var w float64
		for j := b.Lo[1]; j <= b.Hi[1]; j += 4 {
			for i := b.Lo[0]; i <= b.Hi[0]; i += 4 {
				if icTemp(i, j) > cfg.Costs.HotT {
					w += 16 * cfg.Costs.HotChem
				} else {
					w += 16 * cfg.Costs.ColdChem
				}
			}
		}
		return w
	}
	owners := amr.GreedyBalancer{}.Assign(blocks, 0, cfg.P, work)

	rstats := make([]mpi.CommStats, cfg.P)
	msgs := make([]int, cfg.P)
	nbrs := make([]int, cfg.P)
	regions := make([]int, cfg.P)
	world := mpi.Run(cfg.P, cfg.Model, func(comm *mpi.Comm) {
		h := amr.NewHierarchyDecomposed(domain, 2, 1, cfg.P, blocks, owners)
		d := field.New("phi", h, cfg.NComp, 2, comm)

		// Impose the three-hot-spot temperature field (component 0);
		// other components ride along to give messages realistic size.
		var hot, cold int
		for _, pd := range d.LocalPatches(0) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for i := b.Lo[0]; i <= b.Hi[0]; i++ {
					T := icTemp(i, j)
					pd.Set(0, i, j, T)
					if T > cfg.Costs.HotT {
						hot++
					} else {
						cold++
					}
				}
			}
		}
		cells := hot + cold
		// Interior/strip split mirroring evalLevelOverlapped: inner
		// cells never read ghosts and compute while messages fly.
		var innerCells int
		for _, pd := range d.LocalPatches(0) {
			innerCells += pd.Interior().Grow(-d.Ghost).NumCells()
		}
		stripCells := cells - innerCells

		for step := 0; step < cfg.Steps; step++ {
			// Implicit chemistry, cell by cell (no communication; the
			// hot/cold split is the paper's load-imbalance source).
			comm.Charge(float64(cold)*cfg.Costs.ColdChem + float64(hot)*cfg.Costs.HotChem)

			// Spectral-radius bound: local scan + allreduce.
			comm.Charge(float64(cells) * cfg.Costs.DiffStage * 0.05)
			comm.AllreduceScalar(mpi.OpMax, rho)

			// RKC stages: each evaluation exchanges ghosts for real and
			// charges the calibrated per-cell stage cost; the combined
			// error norm is one more reduction. Overlapped mode charges
			// the interior compute while the coalesced messages are in
			// flight — the strip compute waits for Finish.
			for e := 0; e < stages+1; e++ {
				if cfg.Blocking {
					d.ExchangeGhosts(0)
					comm.Charge(float64(cells) * cfg.Costs.DiffStage)
				} else {
					ex := d.ExchangeGhostsStart(0)
					comm.Charge(float64(innerCells) * cfg.Costs.DiffStage)
					ex.Finish()
					comm.Charge(float64(stripCells) * cfg.Costs.DiffStage)
				}
			}
			comm.Allreduce(mpi.OpSum, []float64{1, float64(cells)})
		}
		info := d.ExchangeInfo(0)
		msgs[comm.Rank()] = info.SendMsgs
		nbrs[comm.Rank()] = info.NeighborRanks
		regions[comm.Rank()] = info.RemoteTransfers
		rstats[comm.Rank()] = comm.Stats()
	})

	for r := 0; r < cfg.P; r++ {
		res.RankTimes[r] = world.RankTime(r)
		res.Sends += rstats[r].Sends
		res.WordsSent += rstats[r].WordsSent
		if rstats[r].CommSeconds > res.CommSeconds {
			res.CommSeconds = rstats[r].CommSeconds
		}
		if rstats[r].HiddenSeconds > res.HiddenSeconds {
			res.HiddenSeconds = rstats[r].HiddenSeconds
		}
		res.MsgsPerExchange += msgs[r]
		res.NeighborRankSum += nbrs[r]
		res.RegionsPerExchange += regions[r]
	}
	res.Time = world.MaxVirtualTime()
	res.CellsPerRank = gnx * gny / cfg.P
	return res
}

// hotSpotFrac mirrors the InitialCondition component's layout.
var hotSpotFrac = [3][2]float64{{0.30, 0.30}, {0.70, 0.40}, {0.45, 0.72}}

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
func RunTable5(costs CellCosts, sizes, ps []int) []Table5Stats {
	var out []Table5Stats
	for _, n := range sizes {
		st := Table5Stats{PerProcN: n}
		for _, p := range ps {
			r := RunScaling(ScalingConfig{P: p, PerProcN: n, Costs: costs})
			st.Times = append(st.Times, r.Time)
		}
		st.Mean, st.Median, st.Sigma = stats(st.Times)
		out = append(out, st)
	}
	return out
}

// Fig9Point is one strong-scaling measurement.
type Fig9Point struct {
	P          int
	Time       float64
	Ideal      float64
	Efficiency float64
}

// RunFig9 runs the constant-global-problem study for one mesh.
func RunFig9(costs CellCosts, globalN int, ps []int) []Fig9Point {
	var out []Fig9Point
	var t1 float64
	for _, p := range ps {
		r := RunScaling(ScalingConfig{P: p, GlobalNx: globalN, GlobalNy: globalN, Costs: costs})
		if p == 1 || t1 == 0 {
			t1 = r.Time * float64(p) // if ps does not start at 1
		}
		pt := Fig9Point{P: p, Time: r.Time, Ideal: t1 / float64(p)}
		pt.Efficiency = pt.Ideal / r.Time
		out = append(out, pt)
	}
	return out
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
func RunNetSweep(costs CellCosts, globalN int, ps []int) []NetSweepResult {
	nets := []NetSweepResult{
		{Label: "CPlant Myrinet (60us, 132MB/s)", Model: mpi.CPlantModel},
		{Label: "100bT Ethernet (80us, 11MB/s)", Model: mpi.FastEthernetModel},
	}
	for i := range nets {
		var t1 float64
		for _, p := range ps {
			r := RunScaling(ScalingConfig{P: p, GlobalNx: globalN, GlobalNy: globalN,
				Costs: costs, Model: nets[i].Model})
			if t1 == 0 {
				t1 = r.Time * float64(p)
			}
			pt := Fig9Point{P: p, Time: r.Time, Ideal: t1 / float64(p)}
			pt.Efficiency = pt.Ideal / r.Time
			nets[i].Points = append(nets[i].Points, pt)
		}
	}
	return nets
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
