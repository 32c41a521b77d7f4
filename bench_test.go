// Package ccahydro's root benchmark harness: kernel and ablation benches
// for the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The whole-run work units (the flame, the shock, the 0D ignition and
// Table 4's port call vs direct call) are the benchmark's flame_w1,
// shock_wN and ignition_cells workloads; the scaling tables and
// figures live in cmd/experiments.
package ccahydro

import (
	"math"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/chem"
	"ccahydro/internal/cvode"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
	"ccahydro/internal/rkc"
)

var sink float64

// ---- Ablation: Godunov vs EFM flux cost ---------------------------------------

func fluxBench(b *testing.B, flux euler.FluxFunc) {
	g := euler.Gas{Gamma: 1.4}
	l := euler.Primitive{Rho: 1, U: 0.3, P: 1, Zeta: 0}
	r := euler.Primitive{Rho: 0.5, U: -0.2, P: 0.7, Zeta: 1}
	var acc euler.Conserved
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = flux(g, l, r)
	}
	sink = acc[0]
}

// BenchmarkAblationGodunovFlux vs BenchmarkAblationEFMFlux: the cost of
// the exact Riemann solution vs the kinetic splitting the paper swaps in.
func BenchmarkAblationGodunovFlux(b *testing.B) { fluxBench(b, euler.GodunovFlux) }
func BenchmarkAblationEFMFlux(b *testing.B)     { fluxBench(b, euler.EFMFlux) }
func BenchmarkAblationHLLCFlux(b *testing.B)    { fluxBench(b, euler.HLLCFlux) }

// ---- Ablation: clustering efficiency threshold ---------------------------------

func clusterBench(b *testing.B, efficiency float64) {
	ff := amr.NewFlagField(amr.NewBox(0, 0, 255, 255))
	// An annulus of flags (flame-front-like).
	for j := 0; j < 256; j++ {
		for i := 0; i < 256; i++ {
			r := math.Hypot(float64(i-128), float64(j-128))
			if r > 60 && r < 70 {
				ff.Set(i, j)
			}
		}
	}
	opt := amr.ClusterOptions{Efficiency: efficiency, MaxBoxCells: 4096, MinWidth: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxes := amr.Cluster(ff, opt)
		if len(boxes) == 0 {
			b.Fatal("no boxes")
		}
	}
}

// Clustering threshold sweep: low efficiency gives few fat boxes, high
// efficiency gives many tight ones.
func BenchmarkAblationCluster50(b *testing.B) { clusterBench(b, 0.5) }
func BenchmarkAblationCluster70(b *testing.B) { clusterBench(b, 0.7) }
func BenchmarkAblationCluster90(b *testing.B) { clusterBench(b, 0.9) }

// ---- Ablation: greedy vs SFC load balancing ------------------------------------

func balanceBench(b *testing.B, bal amr.LoadBalancer) {
	var boxes []amr.Box
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			boxes = append(boxes, amr.NewBox(i*16, j*16, i*16+15+i%3, j*16+15))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owners := bal.Assign(boxes, 1, 16, nil)
		if len(owners) != len(boxes) {
			b.Fatal("bad assignment")
		}
	}
}

func BenchmarkAblationGreedyBalance(b *testing.B) { balanceBench(b, amr.GreedyBalancer{}) }
func BenchmarkAblationSFCBalance(b *testing.B)    { balanceBench(b, amr.SFCBalancer{}) }

// ---- Ablation: RKC vs fixed-step RK2 on a stiff diffusion operator -------------

func diffusionOperator(n int, d, dx float64) (rkc.RHS, rkc.SpectralRadius, []float64) {
	inv := d / (dx * dx)
	f := func(_ float64, y, ydot []float64) {
		for i := 0; i < n; i++ {
			var l, r float64
			if i > 0 {
				l = y[i-1]
			}
			if i < n-1 {
				r = y[i+1]
			}
			ydot[i] = inv * (l - 2*y[i] + r)
		}
	}
	rho := func(_ float64, _ []float64) float64 { return 4 * inv }
	y0 := make([]float64, n)
	for i := range y0 {
		y0[i] = math.Sin(math.Pi * float64(i+1) / float64(n+1))
	}
	return f, rho, y0
}

// BenchmarkAblationRKCDiffusion integrates a stiff 1D diffusion system
// with RKC (stabilized stages).
func BenchmarkAblationRKCDiffusion(b *testing.B) {
	n := 255
	f, rho, y0 := diffusionOperator(n, 1, 1.0/256)
	for i := 0; i < b.N; i++ {
		s := rkc.New(n, f, rho, rkc.Options{RelTol: 1e-5, AbsTol: 1e-8})
		s.Init(0, y0)
		if err := s.Integrate(1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRK2Diffusion integrates the same system with
// explicit RK2 at its stability limit (the cost RKC's extended
// stability interval avoids).
func BenchmarkAblationRK2Diffusion(b *testing.B) {
	n := 255
	f, _, y0 := diffusionOperator(n, 1, 1.0/256)
	dx := 1.0 / 256
	dtStable := 0.4 * dx * dx // explicit diffusion limit
	for i := 0; i < b.N; i++ {
		y := append([]float64(nil), y0...)
		k1 := make([]float64, n)
		k2 := make([]float64, n)
		tmp := make([]float64, n)
		for t := 0.0; t < 1e-3; t += dtStable {
			f(t, y, k1)
			for j := range tmp {
				tmp[j] = y[j] + dtStable*k1[j]
			}
			f(t, tmp, k2)
			for j := range y {
				y[j] += 0.5 * dtStable * (k1[j] + k2[j])
			}
		}
		sink = y[n/2]
	}
}

// ---- Ablation: BDF order cap on ignition stiffness ------------------------------

func bdfOrderBench(b *testing.B, maxOrder int) {
	mech := chem.H2AirLite()
	ws := chem.NewSourceWorkspace(mech)
	n := mech.NumSpecies()
	rhs := func(_ float64, y, ydot []float64) {
		T := y[0]
		if T < 200 {
			T = 200
		}
		ydot[0] = mech.ConstPressureSource(T, chem.PAtm, y[1:1+n], ydot[1:1+n], ws)
	}
	y0 := make([]float64, n+1)
	y0[0] = 1200
	copy(y0[1:], mech.StoichiometricH2Air())
	s := cvode.New(n+1, rhs, cvode.Options{RelTol: 1e-8, AbsTol: 1e-12, MaxOrder: maxOrder})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Init(0, y0)
		if err := s.Integrate(1e-5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBDFOrder1(b *testing.B) { bdfOrderBench(b, 1) }
func BenchmarkAblationBDFOrder2(b *testing.B) { bdfOrderBench(b, 2) }
func BenchmarkAblationBDFOrder5(b *testing.B) { bdfOrderBench(b, 5) }

// ---- Infrastructure micro-benches ----------------------------------------------

// BenchmarkGhostExchange4Ranks times one collective ghost exchange on a
// 4-rank cohort (the unit the scaling harness repeats).
func BenchmarkGhostExchange4Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mpi.Run(4, mpi.ZeroModel, func(comm *mpi.Comm) {
			h := amr.NewHierarchy(amr.NewBox(0, 0, 63, 63), 2, 1, 4)
			d := field.New("u", h, 10, 2, comm)
			for k := 0; k < 3; k++ {
				d.ExchangeGhosts(0)
			}
		})
	}
}

// BenchmarkChemistrySource times one full H2-air source-term
// evaluation (the flame's innermost kernel).
func BenchmarkChemistrySource(b *testing.B) {
	mech := chem.H2Air()
	ws := chem.NewSourceWorkspace(mech)
	Y := mech.StoichiometricH2Air()
	Y[mech.SpeciesIndex("OH")] = 1e-3
	chem.NormalizeY(Y)
	dY := make([]float64, mech.NumSpecies())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = mech.ConstPressureSource(1500, chem.PAtm, Y, dY, ws)
	}
}

// BenchmarkAMRRegrid times a full flag-cluster-rebuild cycle.
func BenchmarkAMRRegrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := amr.NewHierarchy(amr.NewBox(0, 0, 127, 127), 2, 3, 4)
		ff := amr.NewFlagField(h.LevelDomain(0))
		for j := 40; j < 90; j++ {
			ff.Set(j, j)
			ff.Set(j+1, j)
		}
		h = h.Regrid([]*amr.FlagField{ff}, amr.DefaultRegridOptions)
		if h.NumLevels() < 2 {
			b.Fatal("no refinement")
		}
	}
}
