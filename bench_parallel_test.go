// Benchmarks for the patch-execution engine (internal/exec): flame
// macro steps and Euler flux sweeps at pool widths 1 and 4, plus
// steady-state allocation counts for the scratch-lifted kernels. On a
// multi-core host the W4 variants show the patch-level speedup; on a
// single-core CI box they measure the (small) coordination overhead.
// Run with
//
//	go test -bench=PatchParallel -benchmem
package ccahydro

import (
	"runtime"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/core"
	"ccahydro/internal/euler"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
	"ccahydro/internal/rkc"
)

func flameStepAtWidth(b *testing.B, width int) {
	exec.SetDefaultWidth(width)
	defer exec.SetDefaultWidth(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.RunReactionDiffusion(nil,
			core.Param{Instance: "grace", Key: "nx", Value: "48"},
			core.Param{Instance: "grace", Key: "ny", Value: "48"},
			core.Param{Instance: "grace", Key: "maxLevels", Value: "2"},
			core.Param{Instance: "driver", Key: "steps", Value: "1"},
			core.Param{Instance: "driver", Key: "dt", Value: "1e-7"},
			core.Param{Instance: "driver", Key: "regridEvery", Value: "1"},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatchParallelFlameW1 vs W4: one operator-split flame macro
// step (per-cell implicit chemistry + RKC diffusion over all patches)
// under a serial and a 4-wide pool.
func BenchmarkPatchParallelFlameW1(b *testing.B) { flameStepAtWidth(b, 1) }
func BenchmarkPatchParallelFlameW4(b *testing.B) { flameStepAtWidth(b, 4) }

func shockStepAtWidth(b *testing.B, width int) {
	exec.SetDefaultWidth(width)
	defer exec.SetDefaultWidth(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.RunShockInterface(nil, "GodunovFlux",
			core.Param{Instance: "grace", Key: "nx", Value: "64"},
			core.Param{Instance: "grace", Key: "ny", Value: "32"},
			core.Param{Instance: "grace", Key: "lx", Value: "2.0"},
			core.Param{Instance: "grace", Key: "ly", Value: "1.0"},
			core.Param{Instance: "grace", Key: "maxLevels", Value: "2"},
			core.Param{Instance: "driver", Key: "tEnd", Value: "0.05"},
			core.Param{Instance: "driver", Key: "maxSteps", Value: "10"},
			core.Param{Instance: "driver", Key: "regridEvery", Value: "5"},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatchParallelShockW1 vs W4: RK2 Godunov steps with the
// circulation diagnostic under serial and 4-wide pools.
func BenchmarkPatchParallelShockW1(b *testing.B) { shockStepAtWidth(b, 1) }
func BenchmarkPatchParallelShockW4(b *testing.B) { shockStepAtWidth(b, 4) }

// eulerBenchPatch builds one ghost-padded patch of a smooth flow state.
func eulerBenchPatch(n int) (*field.PatchData, *field.PatchData) {
	p := &amr.Patch{Box: amr.NewBox(0, 0, n-1, n-1)}
	pd := field.NewPatchData(p, euler.NumComp, 2)
	out := field.NewPatchData(p, euler.NumComp, 2)
	g := pd.GrownBox()
	gas := euler.Gas{Gamma: 1.4}
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			w := euler.Primitive{
				Rho: 1 + 0.1*float64((i+j)%5),
				U:   0.3, V: -0.1,
				P:    1 + 0.05*float64(i%3),
				Zeta: float64(j%2) * 0.5,
			}
			c := gas.ToConserved(w)
			for k := 0; k < euler.NumComp; k++ {
				pd.Set(k, i, j, c[k])
			}
		}
	}
	return pd, out
}

func eulerRHSAtWidth(b *testing.B, width int) {
	pd, out := eulerBenchPatch(128)
	s := euler.NewSolver(1.4, euler.GodunovFlux)
	if width > 1 {
		s.Pool = exec.NewPool(width)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RHSRegion(pd, out, pd.Interior(), 1.0/128, 1.0/128)
	}
}

// BenchmarkPatchParallelEulerRHSW1 vs W4: the row-sweep MUSCL+Godunov
// RHS on one 128x128 patch — the hot loop the pool chunks by rows.
// Also reports allocs/op: steady state should stay near zero thanks to
// the pooled sweep buffers.
func BenchmarkPatchParallelEulerRHSW1(b *testing.B) { eulerRHSAtWidth(b, 1) }
func BenchmarkPatchParallelEulerRHSW4(b *testing.B) { eulerRHSAtWidth(b, 4) }

// BenchmarkRKCSteadyStateAllocs shows the lifted Chebyshev scratch:
// repeated Init+Integrate on one solver, allocs/op ~ 0.
func BenchmarkRKCSteadyStateAllocs(b *testing.B) {
	n := 255
	f, rho, y0 := diffusionOperator(n, 1, 1.0/256)
	s := rkc.New(n, f, rho, rkc.Options{RelTol: 1e-5, AbsTol: 1e-8})
	s.Init(0, y0)
	if err := s.Integrate(1e-3); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Init(0, y0)
		if err := s.Integrate(1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
