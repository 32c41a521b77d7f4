// Instrumented runs the 0D ignition assembly with two observability
// layers stacked:
//
//  1. The TAU-style performance monitor spliced into the integrator's
//     RHS wire — the paper's future-work plan ("By using TAU, we intend
//     to characterize the performance characteristics of individual
//     components and their assemblies"), executed. The RHSMonitor
//     component provides and uses the same port type, so it drops into
//     the existing wiring without touching either endpoint:
//
//     before:  cvode.rhs ────────────────► model.rhs
//     after:   cvode.rhs ─► monitor.rhs; monitor.inner ─► model.rhs
//
//  2. The framework's own port-call interceptor: attaching an obs
//     session to the framework makes GetPort hand out instrumented
//     proxies, so every wire is measured without splicing anything.
//
// Usage:
//
//	go run ./examples/instrumented [-mech co-h2-air] [-trace flame.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
)

func main() {
	mech := flag.String("mech", "h2air", "mechanism: h2air, h2air-lite, co-h2-air")
	tEnd := flag.Float64("tEnd", 5e-4, "integration horizon (s)")
	tracePath := flag.String("trace", "", "write a Perfetto trace of the SCMD flame to this file")
	flag.Parse()

	repo := core.Repo()
	f := cca.NewFramework(repo, nil)
	serialObs := obs.NewGroup(1)
	f.SetObservability(serialObs.Rank(0))
	must(f.SetParameter("chem", "mech", *mech))
	must(f.SetParameter("driver", "tEnd", fmt.Sprint(*tEnd)))
	must(f.SetParameter("driver", "nOut", "10"))
	must(f.SetParameter("monitor", "label", "chemistry RHS"))

	for _, inst := range [][2]string{
		{"ThermoChemistry", "chem"}, {"DPDt", "dpdt"}, {"ProblemModeler", "model"},
		{"Initializer", "init"}, {"CvodeComponent", "cvode"},
		{"StatisticsComponent", "stats"}, {"IgnitionDriver", "driver"},
		{"TauTimer", "tau"}, {"RHSMonitor", "monitor"},
	} {
		must(f.Instantiate(inst[0], inst[1]))
	}
	for _, w := range [][4]string{
		{"dpdt", "chemistry", "chem", "chemistry"},
		{"model", "chemistry", "chem", "chemistry"},
		{"model", "dpdt", "dpdt", "dpdt"},
		{"init", "chemistry", "chem", "chemistry"},
		{"monitor", "inner", "model", "rhs"},
		{"monitor", "timing", "tau", "timing"},
		{"cvode", "rhs", "monitor", "rhs"},
		{"driver", "ic", "init", "ic"},
		{"driver", "integrator", "cvode", "integrator"},
		{"driver", "chemistry", "chem", "chemistry"},
		{"driver", "stats", "stats", "stats"},
	} {
		must(f.Connect(w[0], w[1], w[2], w[3]))
	}

	must(f.Go("driver", "go"))

	drComp, _ := f.Lookup("driver")
	dr := drComp.(*components.IgnitionDriver)
	fmt.Printf("ignition with %q: T %0.f -> %.0f K over %.1e s\n\n",
		*mech, dr.Temps[0], dr.Temps[len(dr.Temps)-1], *tEnd)

	tauComp, _ := f.Lookup("tau")
	fmt.Println("per-component timing (TAU-style, spliced monitor):")
	tauComp.(*components.TauTimer).WriteReport(os.Stdout)

	// The interceptor saw the same run from the framework side: every
	// GetPort wire, not just the one the monitor was spliced into.
	fmt.Println("\nport-call summary (framework interceptor, no splicing):")
	serialObs.MergedSnapshot().WriteCallTable(os.Stdout)

	// The message substrate instruments itself the same way: run a small
	// flame on the 4-rank virtual cluster and report each rank's traffic,
	// stall time, and the flight time the asynchronous coalesced exchange
	// hid behind interior compute.
	fmt.Println("\nmessage statistics, 4-rank SCMD flame (virtual CPlant):")
	flameObs := obs.NewGroup(4)
	stats := make([]mpi.CommStats, 4)
	res := cca.RunSCMD(4, mpi.CPlantModel, core.Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		f.SetObservability(flameObs.Rank(comm.Rank()))
		_, _, err := core.RunReactionDiffusion(comm,
			core.Param{Instance: "grace", Key: "nx", Value: "24"},
			core.Param{Instance: "grace", Key: "ny", Value: "24"},
			core.Param{Instance: "grace", Key: "maxLevels", Value: "1"},
			core.Param{Instance: "driver", Key: "steps", Value: "2"},
			core.Param{Instance: "driver", Key: "dt", Value: "1e-7"},
			core.Param{Instance: "driver", Key: "regridEvery", Value: "0"},
			core.Param{Instance: "driver", Key: "skipChem", Value: "true"},
		)
		stats[comm.Rank()] = comm.Stats()
		return err
	})
	for r, err := range res.Errors {
		if err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}
	fmt.Printf("%-6s %8s %8s %12s %12s %12s\n", "rank", "sends", "words", "stall (s)", "hidden (s)", "vtime (s)")
	for r, s := range stats {
		fmt.Printf("%-6d %8d %8d %12.6f %12.6f %12.6f\n",
			r, s.Sends, s.WordsSent, s.CommSeconds, s.HiddenSeconds, res.World.RankTime(r))
	}

	if *tracePath != "" {
		out, err := os.Create(*tracePath)
		must(err)
		must(flameObs.WriteTrace(out))
		must(out.Close())
		fmt.Printf("\nflame trace written to %s (open with https://ui.perfetto.dev)\n", *tracePath)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
