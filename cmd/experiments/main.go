// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Table 4, the component-overhead measurement, is
// the benchmark's ignition_cells workload instead (benchmark/).
//
//	experiments -exp table5         # weak-scaling statistics (flame on P ranks)
//	experiments -exp fig3           # flame temperature evolution
//	experiments -exp fig4           # AMR patch census
//	experiments -exp fig6           # shock-interface density field
//	experiments -exp fig7           # circulation convergence (1/2/3 levels)
//	experiments -exp fig8           # weak-scaling series
//	experiments -exp fig9           # strong-scaling vs ideal
//	experiments -exp comm           # halo study (blocking vs async) + small flame series
//	experiments -exp netsweep       # strong scaling on two network models
//	experiments -exp ckpt           # incremental-checkpoint delta-chain sizes
//	experiments -exp all            # everything
//
// The scaling studies (table5, fig8, fig9, netsweep, comm) run the
// flame built-in on in-process ranks whose virtual clocks are charged
// from work counts and message costs, so they repeat on any host. The
// comm and ckpt studies are what the wall-clock benchmark in benchmark/
// cannot express; their JSON artifacts are gated by scripts/check.sh.
//
// -quick shrinks the parameter sweeps for a fast sanity pass. -commjson
// writes the comm study to a JSON file (the BENCH_comm.json artifact)
// and -ckptjson the checkpoint study (BENCH_ckpt.json).
// -cpuprofile/-memprofile write pprof profiles of whatever experiments
// ran.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ccahydro/internal/bench"
	"ccahydro/internal/components"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
	"ccahydro/internal/prof"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: table5, fig3, fig4, fig6, fig7, fig8, fig9, netsweep, comm, ckpt, all")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast pass")
	dump := flag.String("dump", "", "directory for CSV/PGM field dumps (fig3, fig4, fig6)")
	commJSON := flag.String("commjson", "", "path for the comm study JSON artifact (exp comm)")
	ckptJSON := flag.String("ckptjson", "", "path for the checkpoint study JSON artifact (exp ckpt)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			// Finalize profiles before the error exit: a failed
			// experiment's profile is exactly the one worth inspecting.
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			os.Exit(1)
		}
		fmt.Println()
	}

	ps := []int{1, 2, 4, 8, 12, 16, 24, 32, 48}
	sizes := []int{50, 100, 175}
	strongs := []int{200, 350}
	if *quick {
		ps = []int{1, 2, 4, 8}
		sizes = []int{50, 100}
		strongs = []int{100}
	}

	// Table 5 and Fig 8 are two views of one weak-scaling series.
	weak := sync.OnceValues(func() ([]bench.Table5Stats, error) { return bench.RunTable5(sizes, ps) })

	run("table5", func() error {
		rows, err := weak()
		if err != nil {
			return err
		}
		bench.PrintTable5(os.Stdout, rows, ps)
		return nil
	})

	run("fig8", func() error {
		rows, err := weak()
		if err != nil {
			return err
		}
		bench.PrintFig8(os.Stdout, rows, ps)
		return nil
	})

	run("fig9", func() error {
		series := map[int][]bench.Fig9Point{}
		for _, n := range strongs {
			pts, err := bench.RunFig9(n, ps, mpi.CPlantModel)
			if err != nil {
				return err
			}
			series[n] = pts
		}
		bench.PrintFig9(os.Stdout, series)
		return nil
	})

	run("fig3", func() error {
		cfg := bench.DefaultFig3Config
		if *quick {
			cfg = bench.Fig3Config{Nx: 24, MaxLevels: 2, StepsPerFrame: 2, Frames: 2, Dt: 1e-7}
		}
		frames, f, err := bench.RunFig3(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig3(os.Stdout, frames)
		if *dump != "" {
			comp, _ := f.Lookup("grace")
			gc := comp.(*components.GrACEComponent)
			if err := dumpField(gc.Field("phi"), 0, filepath.Join(*dump, "fig3_T")); err != nil {
				return err
			}
			fmt.Printf("wrote %s/fig3_T.{csv,pgm}\n", *dump)
		}
		return nil
	})

	run("fig4", func() error {
		cfg := bench.DefaultFig3Config
		if *quick {
			cfg = bench.Fig3Config{Nx: 24, MaxLevels: 2, StepsPerFrame: 2, Frames: 1, Dt: 1e-7}
		}
		rows, err := bench.RunFig4(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig4(os.Stdout, rows)
		return nil
	})

	run("fig6", func() error {
		cfg := bench.DefaultFig6Config
		if *quick {
			cfg = bench.Fig6Config{Nx: 48, Ny: 24, MaxLevels: 2, TEnd: 0.4, Flux: "GodunovFlux", Mach: 1.5}
		}
		res, f, err := bench.RunFig6(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig6(os.Stdout, res)
		if *dump != "" {
			comp, _ := f.Lookup("grace")
			gc := comp.(*components.GrACEComponent)
			if err := dumpField(gc.Field("U"), euler.IRho, filepath.Join(*dump, "fig6_rho")); err != nil {
				return err
			}
			fmt.Printf("wrote %s/fig6_rho.{csv,pgm}\n", *dump)
			fmt.Println("patch map (digit = finest level):")
			fmt.Print(field.PatchMap(gc.Hierarchy(), 96))
		}
		return nil
	})

	run("comm", func() error {
		// Pinned and work-count costs keep the artifact deterministic
		// across hosts (no wall-clock time enters the virtual times).
		haloPs := []int{2, 4, 8, 16, 48}
		n := 200
		if *quick {
			haloPs = []int{2, 4}
			n = 100
		}
		rep, err := bench.BuildCommReport(n, haloPs)
		if err != nil {
			return err
		}
		bench.PrintCommReport(os.Stdout, rep)
		return writeJSON(*commJSON, rep)
	})

	run("ckpt", func() error {
		scratch, err := os.MkdirTemp("", "ckpt-study-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(scratch)
		rep, err := bench.BuildCkptReport(os.Stdout, scratch)
		if err != nil {
			return err
		}
		fmt.Println()
		bench.PrintCkptReport(os.Stdout, rep)
		return writeJSON(*ckptJSON, rep)
	})

	run("netsweep", func() error {
		n := 200
		if *quick {
			n = 100
		}
		sweeps, err := bench.RunNetSweep(n, ps)
		if err != nil {
			return err
		}
		bench.PrintNetSweep(os.Stdout, n, sweeps)
		return nil
	})

	run("fig7", func() error {
		cfg := bench.DefaultFig7Config
		if *quick {
			cfg = bench.Fig7Config{Nx: 48, Ny: 24, TEnd: 0.8, MaxLevels: []int{1, 2}}
		}
		series, err := bench.RunFig7(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig7(os.Stdout, series, 12)
		return nil
	})

	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeJSON writes a study's artifact to path; an empty path skips it.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// dumpField writes one component of a DataObject as both CSV and PGM.
func dumpField(d *field.DataObject, comp int, base string) error {
	csvF, err := os.Create(base + ".csv")
	if err != nil {
		return err
	}
	defer csvF.Close()
	if err := d.WriteCSV(csvF, comp, base); err != nil {
		return err
	}
	pgmF, err := os.Create(base + ".pgm")
	if err != nil {
		return err
	}
	defer pgmF.Close()
	return d.WritePGM(pgmF, comp)
}
