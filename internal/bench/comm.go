package bench

import (
	"fmt"
	"io"
	"math"

	"ccahydro/internal/amr"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
)

// Communication benchmarks: a pure ghost-exchange microbenchmark
// with a pinned per-cell compute rate, and small strong and weak
// scaling series of the real flame assembly on its work-count clock.
// Everything here runs on the virtual-clock cluster, so the emitted
// numbers (BENCH_comm.json) are deterministic across hosts.

// HaloCellCost is the halo microbenchmark's synthetic compute rate:
// seconds charged per cell per exchange.
const HaloCellCost = 8.0e-8

// HaloPoint is one halo-microbenchmark measurement: the same exchange
// schedule driven blocking (Finish immediately after Start, compute
// after) and overlapped (interior compute charged between Start and
// Finish).
type HaloPoint struct {
	P         int `json:"p"`
	N         int `json:"n"`
	Exchanges int `json:"exchanges"`
	// BlockingTime / AsyncTime are max-over-ranks virtual run times.
	BlockingTime float64 `json:"blocking_time_s"`
	AsyncTime    float64 `json:"async_time_s"`
	// MsgsPerExchange sums the coalesced per-rank send counts of one
	// exchange; RegionsPerExchange is what the count was before
	// coalescing (one message per overlap region).
	MsgsPerExchange    int `json:"msgs_per_exchange"`
	RegionsPerExchange int `json:"regions_per_exchange"`
	// NeighborRankSum sums per-rank neighbor counts — the coalescing
	// invariant is MsgsPerExchange <= NeighborRankSum.
	NeighborRankSum int `json:"neighbor_rank_sum"`
	// WordsPerExchange is the global outbound volume of one exchange.
	WordsPerExchange int `json:"words_per_exchange"`
	// StallSeconds / HiddenSeconds are the worst per-rank receive-stall
	// and covered-flight totals of the overlapped run.
	StallSeconds  float64 `json:"stall_seconds"`
	HiddenSeconds float64 `json:"hidden_seconds"`
}

// runHaloMode executes the microbenchmark in one mode and returns the
// max virtual time plus per-rank stats.
func runHaloMode(p, n, ncomp, ghost, exchanges int, perCell float64,
	model mpi.NetworkModel, blocking bool) (float64, []mpi.CommStats, field.ExchangeInfo) {
	domain := amr.NewBox(0, 0, n-1, n-1)
	// Several patches per rank, dealt round-robin: each rank then shares
	// multiple overlap regions with each neighbor, so coalescing has
	// something to merge (msgs < regions).
	blockCells := n * n / (4 * p)
	if blockCells < 64 {
		blockCells = 64
	}
	blocks := amr.SplitLargeBoxes([]amr.Box{domain}, blockCells)
	owners := make([]int, len(blocks))
	for i := range owners {
		owners[i] = i % p
	}
	rstats := make([]mpi.CommStats, p)
	infos := make([]field.ExchangeInfo, p)
	world := mpi.Run(p, model, func(comm *mpi.Comm) {
		h := amr.NewHierarchyDecomposed(domain, 2, 1, p, blocks, owners)
		d := field.New("u", h, ncomp, ghost, comm)
		var cells, innerCells int
		for _, pd := range d.LocalPatches(0) {
			cells += pd.Interior().NumCells()
			innerCells += pd.Interior().Grow(-d.Ghost).NumCells()
		}
		stripCells := cells - innerCells
		for e := 0; e < exchanges; e++ {
			if blocking {
				d.ExchangeGhosts(0)
				comm.Charge(float64(cells) * perCell)
			} else {
				ex := d.ExchangeGhostsStart(0)
				comm.Charge(float64(innerCells) * perCell)
				ex.Finish()
				comm.Charge(float64(stripCells) * perCell)
			}
		}
		comm.Barrier()
		infos[comm.Rank()] = d.ExchangeInfo(0)
		rstats[comm.Rank()] = comm.Stats()
	})
	var info field.ExchangeInfo
	for _, in := range infos {
		info.Transfers += in.Transfers
		info.SendMsgs += in.SendMsgs
		info.RecvMsgs += in.RecvMsgs
		info.SendWords += in.SendWords
		info.NeighborRanks += in.NeighborRanks
		info.RemoteTransfers += in.RemoteTransfers
	}
	return world.MaxVirtualTime(), rstats, info
}

// RunHalo measures one (P, N) halo-microbenchmark point in both modes.
// perCell is the synthetic compute rate charged per cell per exchange.
func RunHalo(p, n, exchanges int, perCell float64, model mpi.NetworkModel) HaloPoint {
	const ncomp, ghost = 10, 2
	pt := HaloPoint{P: p, N: n, Exchanges: exchanges}
	bt, _, _ := runHaloMode(p, n, ncomp, ghost, exchanges, perCell, model, true)
	at, rstats, info := runHaloMode(p, n, ncomp, ghost, exchanges, perCell, model, false)
	pt.BlockingTime, pt.AsyncTime = bt, at
	pt.MsgsPerExchange = info.SendMsgs
	pt.RegionsPerExchange = info.RemoteTransfers
	pt.NeighborRankSum = info.NeighborRanks
	pt.WordsPerExchange = info.SendWords
	for _, s := range rstats {
		if s.CommSeconds > pt.StallSeconds {
			pt.StallSeconds = s.CommSeconds
		}
		if s.HiddenSeconds > pt.HiddenSeconds {
			pt.HiddenSeconds = s.HiddenSeconds
		}
	}
	return pt
}

// FlamePoint is one run of the flame built-in on the work-count
// clock (RunFlame).
type FlamePoint struct {
	P  int `json:"p"`
	Nx int `json:"nx"`
	Ny int `json:"ny"`
	// RankTimes are the per-rank virtual run times.
	RankTimes []float64 `json:"rank_times_s"`
}

// flameSeries runs RunFlame at every P in ps on the mesh that mesh(p)
// returns.
func flameSeries(ps []int, mesh func(p int) (int, int)) ([]FlamePoint, error) {
	var out []FlamePoint
	for _, p := range ps {
		nx, ny := mesh(p)
		times, err := RunFlame(p, nx, ny, mpi.CPlantModel)
		if err != nil {
			return nil, err
		}
		out = append(out, FlamePoint{P: p, Nx: nx, Ny: ny, RankTimes: times})
	}
	return out, nil
}

// CommReport is the BENCH_comm.json payload.
type CommReport struct {
	// Model names the network cost model (alpha/beta) used throughout.
	Model string `json:"model"`
	// HaloCellCost is the halo study's pinned per-cell rate.
	HaloCellCost float64     `json:"halo_cell_s"`
	Halo         []HaloPoint `json:"halo"`
	// FlameStrong runs a 48x48 flame and FlameWeak a 16x16 block per
	// rank, each at P = 1, 2, 4, 8.
	FlameStrong []FlamePoint `json:"flame_strong"`
	FlameWeak   []FlamePoint `json:"flame_weak"`
}

// BuildCommReport runs the communication study: the halo microbench
// over haloPs at mesh haloN, and the flame's strong and weak series.
// Deterministic (virtual clocks, pinned and work-count costs).
func BuildCommReport(haloN int, haloPs []int) (CommReport, error) {
	rep := CommReport{Model: "CPlant (60us, 132MB/s)", HaloCellCost: HaloCellCost}
	for _, p := range haloPs {
		rep.Halo = append(rep.Halo, RunHalo(p, haloN, 20, HaloCellCost, mpi.CPlantModel))
	}
	ps := []int{1, 2, 4, 8}
	var err error
	if rep.FlameStrong, err = flameSeries(ps, func(int) (int, int) { return 48, 48 }); err != nil {
		return rep, err
	}
	rep.FlameWeak, err = flameSeries(ps, func(p int) (int, int) { return weakMesh(16, p) })
	return rep, err
}

// PrintCommReport renders the study as text.
func PrintCommReport(w io.Writer, rep CommReport) {
	fmt.Fprintf(w, "Halo exchange microbenchmark (%s; 10 comps, ghost 2; 20 exchanges)\n\n", rep.Model)
	fmt.Fprintf(w, "%4s %6s %12s %12s %8s %8s %8s %12s\n",
		"P", "N", "blocking(s)", "async(s)", "msgs", "regions", "nbrs", "hidden(s)")
	for _, h := range rep.Halo {
		fmt.Fprintf(w, "%4d %6d %12.6f %12.6f %8d %8d %8d %12.6f\n",
			h.P, h.N, h.BlockingTime, h.AsyncTime,
			h.MsgsPerExchange, h.RegionsPerExchange, h.NeighborRankSum, h.HiddenSeconds)
	}
	fmt.Fprintf(w, "\nExpected shape: async <= blocking everywhere (flight time hides behind interior compute),\n")
	fmt.Fprintf(w, "and msgs <= nbrs <= regions (coalescing packs every region for a peer into one message).\n")
	for _, series := range []struct {
		name string
		pts  []FlamePoint
	}{{"strong, 48x48 mesh", rep.FlameStrong}, {"weak, 16x16 per rank", rep.FlameWeak}} {
		fmt.Fprintf(w, "\nFlame assembly on the work-count clock, %s\n\n", series.name)
		fmt.Fprintf(w, "%4s %8s %12s %12s\n", "P", "mesh", "max(s)", "min(s)")
		for _, pt := range series.pts {
			mn, mx := math.Inf(1), 0.0
			for _, t := range pt.RankTimes {
				mn, mx = math.Min(mn, t), math.Max(mx, t)
			}
			fmt.Fprintf(w, "%4d %8s %12.6f %12.6f\n", pt.P, fmt.Sprintf("%dx%d", pt.Nx, pt.Ny), mx, mn)
		}
	}
}
