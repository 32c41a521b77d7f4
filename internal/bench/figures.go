package bench

import (
	"fmt"
	"io"
	"math"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/euler"
)

// ---- Fig 3: temperature-field evolution of the flame --------------------
//
// The paper's frames (t = 0, 0.265, 0.395 ms) come from a 58-hour,
// 28-CPU run. This reproduction exercises the same code path on a
// reduced configuration (coarser mesh, shorter horizon): the hot spots
// ignite to the adiabatic flame temperature and diffusive fronts form,
// which is the qualitative content of the figure.

// Fig3Snapshot summarizes one temperature frame.
type Fig3Snapshot struct {
	Time          float64
	TMin, TMax    float64
	TMean         float64
	BurntFraction float64 // fraction of coarse cells above 1500 K
}

// Fig3Config tunes the flame-evolution run.
type Fig3Config struct {
	Nx, MaxLevels, StepsPerFrame, Frames int
	Dt                                   float64
}

// DefaultFig3Config runs in ~a minute on a laptop-class core.
var DefaultFig3Config = Fig3Config{Nx: 32, MaxLevels: 2, StepsPerFrame: 8, Frames: 3, Dt: 8e-7}

// RunFig3 produces the frame summaries and the final framework (for
// field dumps).
func RunFig3(cfg Fig3Config) ([]Fig3Snapshot, *cca.Framework, error) {
	if cfg.Nx == 0 {
		cfg = DefaultFig3Config
	}
	f := cca.NewFramework(core.Repo(), nil)
	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: fmt.Sprint(cfg.Nx)},
		{Instance: "grace", Key: "ny", Value: fmt.Sprint(cfg.Nx)},
		{Instance: "grace", Key: "maxLevels", Value: fmt.Sprint(cfg.MaxLevels)},
		{Instance: "driver", Key: "steps", Value: fmt.Sprint(cfg.StepsPerFrame)},
		{Instance: "driver", Key: "dt", Value: fmt.Sprint(cfg.Dt)},
		{Instance: "driver", Key: "regridEvery", Value: "2"},
		{Instance: "regrid", Key: "threshold", Value: "0.2"},
	}
	if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params}); err != nil {
		return nil, nil, err
	}
	var frames []Fig3Snapshot
	snapshot := func(t float64) Fig3Snapshot {
		comp, _ := f.Lookup("grace")
		gc := comp.(*components.GrACEComponent)
		d := gc.Field("phi")
		s := Fig3Snapshot{Time: t, TMin: math.Inf(1), TMax: math.Inf(-1)}
		var sum float64
		var count, burnt int
		for _, pd := range d.LocalPatches(0) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for i := b.Lo[0]; i <= b.Hi[0]; i++ {
					v := pd.At(0, i, j)
					sum += v
					count++
					if v > 1500 {
						burnt++
					}
					if v < s.TMin {
						s.TMin = v
					}
					if v > s.TMax {
						s.TMax = v
					}
				}
			}
		}
		s.TMean = sum / float64(count)
		s.BurntFraction = float64(burnt) / float64(count)
		return s
	}

	// Each Go call advances StepsPerFrame steps; the driver continues
	// from the current field on repeated invocations.
	t := 0.0
	for frame := 0; frame < cfg.Frames; frame++ {
		if err := f.Go("driver", "go"); err != nil {
			return frames, f, err
		}
		t += float64(cfg.StepsPerFrame) * cfg.Dt
		frames = append(frames, snapshot(t))
	}
	return frames, f, nil
}

// PrintFig3 renders the frame summaries.
func PrintFig3(w io.Writer, frames []Fig3Snapshot) {
	fmt.Fprintf(w, "Fig 3: temperature-field evolution (reduced run; paper frames at 0, 0.265, 0.395 ms)\n\n")
	fmt.Fprintf(w, "%12s %10s %10s %10s %8s\n", "t (s)", "Tmin (K)", "Tmax (K)", "Tmean (K)", "burnt %")
	for _, fr := range frames {
		fmt.Fprintf(w, "%12.3e %10.1f %10.1f %10.1f %8.2f\n",
			fr.Time, fr.TMin, fr.TMax, fr.TMean, 100*fr.BurntFraction)
	}
	fmt.Fprintf(w, "\nExpected shape: hot spots ignite toward ~3000 K and the burnt fraction grows as fronts spread.\n")
}

// ---- Fig 4: AMR patch distribution ---------------------------------------

// Fig4Row is one level of the patch census.
type Fig4Row struct {
	Level, Patches, Cells int
	Coverage              float64
}

// RunFig4 reuses the Fig 3 run and reports the final hierarchy census —
// the paper's "patch distribution with the finest mesh over the flame".
func RunFig4(cfg Fig3Config) ([]Fig4Row, error) {
	_, f, err := RunFig3(cfg)
	if err != nil {
		return nil, err
	}
	comp, _ := f.Lookup("grace")
	h := comp.(*components.GrACEComponent).Hierarchy()
	var rows []Fig4Row
	for _, c := range h.CensusReport() {
		rows = append(rows, Fig4Row{Level: c.Level, Patches: c.Patches, Cells: c.Cells, Coverage: c.Coverage})
	}
	return rows, nil
}

// PrintFig4 renders the census.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "Fig 4: AMR patch distribution over the flame front\n\n")
	fmt.Fprintf(w, "%6s %8s %10s %10s\n", "level", "patches", "cells", "coverage")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %8d %10d %9.1f%%\n", r.Level, r.Patches, r.Cells, 100*r.Coverage)
	}
	fmt.Fprintf(w, "\nExpected shape: fine levels cover only the flame fronts (small coverage), not the whole domain.\n")
}

// ---- Fig 6: density field after shock-interface interaction ---------------

// Fig6Result summarizes the density field at the end of the run.
type Fig6Result struct {
	Time                float64
	RhoMin, RhoMax      float64
	InterfaceCells      int
	UpstreamOfInterface float64 // mean density left of the zeta=0.5 line
	DownstreamDensity   float64 // mean density right of it
	Levels              int
	FinestCoverage      float64
	Circulation         float64
}

// Fig6Config tunes the shock run.
type Fig6Config struct {
	Nx, Ny, MaxLevels int
	TEnd              float64
	Flux              string
	Mach              float64
}

// DefaultFig6Config reaches the paper's t/tau ~ 2 interaction stage.
var DefaultFig6Config = Fig6Config{Nx: 96, Ny: 48, MaxLevels: 2, TEnd: 0.9, Flux: "GodunovFlux", Mach: 1.5}

// RunFig6 runs the shock problem and summarizes the final density field.
func RunFig6(cfg Fig6Config) (Fig6Result, *cca.Framework, error) {
	if cfg.Nx == 0 {
		cfg = DefaultFig6Config
	}
	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: fmt.Sprint(cfg.Nx)},
		{Instance: "grace", Key: "ny", Value: fmt.Sprint(cfg.Ny)},
		{Instance: "grace", Key: "lx", Value: "2.0"},
		{Instance: "grace", Key: "ly", Value: "1.0"},
		{Instance: "grace", Key: "maxLevels", Value: fmt.Sprint(cfg.MaxLevels)},
		{Instance: "gas", Key: "mach", Value: fmt.Sprint(cfg.Mach)},
		{Instance: "driver", Key: "tEnd", Value: fmt.Sprint(cfg.TEnd)},
		{Instance: "driver", Key: "maxSteps", Value: "4000"},
		{Instance: "driver", Key: "regridEvery", Value: "5"},
	}
	f := cca.NewFramework(core.Repo(), nil)
	if err := core.AssembleRequest(f, core.RunRequest{Problem: "shock", Flux: cfg.Flux, Params: params}); err != nil {
		return Fig6Result{}, nil, err
	}
	if err := f.Go("driver", "go"); err != nil {
		return Fig6Result{}, nil, err
	}
	drComp, _ := f.Lookup("driver")
	dr := drComp.(*components.ShockDriver)
	gComp, _ := f.Lookup("grace")
	gc := gComp.(*components.GrACEComponent)
	d := gc.Field("U")
	h := gc.Hierarchy()

	res := Fig6Result{Time: dr.FinalTime, RhoMin: math.Inf(1), RhoMax: math.Inf(-1), Levels: h.NumLevels()}
	var upSum, downSum float64
	var upN, downN int
	for _, pd := range d.LocalPatches(0) {
		b := pd.Interior()
		for j := b.Lo[1]; j <= b.Hi[1]; j++ {
			for i := b.Lo[0]; i <= b.Hi[0]; i++ {
				rho := pd.At(euler.IRho, i, j)
				z := pd.At(euler.IZeta, i, j) / rho
				if rho < res.RhoMin {
					res.RhoMin = rho
				}
				if rho > res.RhoMax {
					res.RhoMax = rho
				}
				switch {
				case z > 0.001 && z < 0.999:
					res.InterfaceCells++
				case z <= 0.001:
					upSum += rho
					upN++
				default:
					downSum += rho
					downN++
				}
			}
		}
	}
	if upN > 0 {
		res.UpstreamOfInterface = upSum / float64(upN)
	}
	if downN > 0 {
		res.DownstreamDensity = downSum / float64(downN)
	}
	if h.NumLevels() > 1 {
		c := h.CensusReport()
		res.FinestCoverage = c[len(c)-1].Coverage
	}
	if n := len(dr.Circulations); n > 0 {
		res.Circulation = dr.Circulations[n-1]
	}
	return res, f, nil
}

// PrintFig6 renders the density-field summary.
func PrintFig6(w io.Writer, r Fig6Result) {
	fmt.Fprintf(w, "Fig 6: density field after the shock-interface interaction\n\n")
	fmt.Fprintf(w, "final time (shock-crossing units): %.3f\n", r.Time)
	fmt.Fprintf(w, "density range: %.3f .. %.3f (pre-shock air = 1, Freon = 3)\n", r.RhoMin, r.RhoMax)
	fmt.Fprintf(w, "mean density air side %.3f, Freon side %.3f\n", r.UpstreamOfInterface, r.DownstreamDensity)
	fmt.Fprintf(w, "interface cells (0.001 < zeta < 0.999): %d\n", r.InterfaceCells)
	fmt.Fprintf(w, "hierarchy: %d levels, finest covers %.1f%% of its domain\n", r.Levels, 100*r.FinestCoverage)
	fmt.Fprintf(w, "interfacial circulation: %.4f\n", r.Circulation)
	fmt.Fprintf(w, "\nExpected shape: compressed (shocked) air above rho=1, Freon above 3, steep-gradient\n")
	fmt.Fprintf(w, "regions (shocks, interface) captured by the finest level only; circulation negative.\n")
}

// ---- Fig 7: circulation convergence with refinement ------------------------

// Fig7Series is one refinement depth's circulation history.
type Fig7Series struct {
	Levels       int
	Times        []float64
	Circulations []float64
	// Knee is the extreme (most negative) deposition.
	Knee float64
}

// Fig7Config tunes the convergence study.
type Fig7Config struct {
	Nx, Ny    int
	TEnd      float64
	MaxLevels []int
}

// DefaultFig7Config mirrors the paper's 1, 2, 3-level comparison.
var DefaultFig7Config = Fig7Config{Nx: 64, Ny: 32, TEnd: 1.1, MaxLevels: []int{1, 2, 3}}

// RunFig7 repeats the shock run with 1, 2 and 3 allowed levels and
// records the circulation histories.
func RunFig7(cfg Fig7Config) ([]Fig7Series, error) {
	if cfg.Nx == 0 {
		cfg = DefaultFig7Config
	}
	var out []Fig7Series
	for _, ml := range cfg.MaxLevels {
		dr, _, err := core.RunShockInterface(nil, "GodunovFlux",
			core.Param{Instance: "grace", Key: "nx", Value: fmt.Sprint(cfg.Nx)},
			core.Param{Instance: "grace", Key: "ny", Value: fmt.Sprint(cfg.Ny)},
			core.Param{Instance: "grace", Key: "lx", Value: "2.0"},
			core.Param{Instance: "grace", Key: "ly", Value: "1.0"},
			core.Param{Instance: "grace", Key: "maxLevels", Value: fmt.Sprint(ml)},
			core.Param{Instance: "driver", Key: "tEnd", Value: fmt.Sprint(cfg.TEnd)},
			core.Param{Instance: "driver", Key: "maxSteps", Value: "6000"},
			core.Param{Instance: "driver", Key: "regridEvery", Value: "5"},
		)
		if err != nil {
			return out, err
		}
		s := Fig7Series{Levels: ml, Times: dr.Times, Circulations: dr.Circulations}
		for _, c := range dr.Circulations {
			if c < s.Knee {
				s.Knee = c
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// PrintFig7 renders the convergence comparison.
func PrintFig7(w io.Writer, series []Fig7Series, samples int) {
	fmt.Fprintf(w, "Fig 7: interfacial circulation vs time for 1, 2, 3 refinement levels\n\n")
	fmt.Fprintf(w, "%10s", "t")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%d-level", s.Levels))
	}
	fmt.Fprintln(w)
	if len(series) == 0 || len(series[0].Times) == 0 {
		return
	}
	n := len(series[0].Times)
	if samples <= 0 {
		samples = 12
	}
	tEnd := series[0].Times[n-1]
	for k := 0; k <= samples; k++ {
		t := tEnd * float64(k) / float64(samples)
		fmt.Fprintf(w, "%10.3f", t)
		for _, s := range series {
			fmt.Fprintf(w, " %14.4f", sampleAt(s.Times, s.Circulations, t))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nKnee (max deposition):")
	for _, s := range series {
		fmt.Fprintf(w, "  %d-level: %.4f", s.Levels, s.Knee)
	}
	fmt.Fprintln(w)
	if len(series) >= 3 {
		d12 := math.Abs(series[1].Knee - series[0].Knee)
		d23 := math.Abs(series[2].Knee - series[1].Knee)
		fmt.Fprintf(w, "knee change 1->2 levels: %.4f; 2->3 levels: %.4f\n", d12, d23)
		fmt.Fprintf(w, "\nExpected shape (paper): no appreciable difference between the 2- and 3-level runs\n")
		fmt.Fprintf(w, "(convergence); paper's analytic knee estimate was -0.592 for its parameters.\n")
	}
}

// sampleAt linearly interpolates a (t, y) series.
func sampleAt(ts, ys []float64, t float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	if t <= ts[0] {
		return ys[0]
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] >= t {
			w := (t - ts[i-1]) / (ts[i] - ts[i-1])
			return ys[i-1] + w*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}
