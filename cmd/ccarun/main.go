// Command ccarun is the Ccaffeine-style launcher: it executes a CCA
// assembly on P identically configured framework instances (SCMD), the
// equivalent of "mpirun -np P ccaffeine --file script.rc". A .scn input
// is a declarative scenario (internal/scenario: validated, then lowered
// to the command script it describes); the paper's three applications
// ship as scenarios/ignition0d.scn, flame2d.scn and shockinterface.scn.
// Any other input is read as a command script.
//
//	ccarun -np 4 scenarios/flame2d.scn
//	ccarun -list                                 # show the component palette
//	ccarun -arena scenarios/ignition0d.scn       # print the assembly without running "go"
//	ccarun -np 4 -trace out.json file.scn        # Perfetto trace of the run
//	ccarun -obs file.scn                         # port-call summary table
//	ccarun -metrics :8080 file.scn               # /metrics, /debug/vars, /debug/pprof
//	ccarun -np 4 -ckpt-every 5 -ckpt-dir ck file.scn    # checkpoint every 5 steps
//	ccarun -np 4 -restore ck file.scn                   # resume from the latest checkpoint
//	ccarun -np 4 -ckpt-every 2 -fault kill:1@3 file.scn # kill rank 1 at step 3; auto-recover
//	ccarun -np 4 -serve :8080 file.scn           # live /metrics /healthz /series /trace
//	ccarun -np 4 -events run.jsonl file.scn      # structured JSONL event log
//
// Command script grammar (one command per line, # comments):
//
//	repository get-global <ClassName>
//	instantiate <ClassName> <instance>
//	parameter <instance> <key> <value...>
//	connect <user> <usesPort> <provider> <providesPort>
//	disconnect <user> <usesPort>
//	go <instance> <portName>
//	quit
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	_ "expvar"         // /debug/vars on the metrics server
	_ "net/http/pprof" // /debug/pprof on the metrics server

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
	"ccahydro/internal/prof"
	"ccahydro/internal/scenario"
	"ccahydro/internal/telemetry"
)

func main() {
	np := flag.Int("np", 1, "number of SCMD framework instances (ranks)")
	list := flag.Bool("list", false, "list the component palette and exit")
	arena := flag.Bool("arena", false, "execute everything except 'go' commands and print the assembly")
	network := flag.String("network", "cplant", "virtual network model: cplant, fastethernet, zero")
	tracePath := flag.String("trace", "", "write a merged Chrome/Perfetto trace of the run to this file")
	obsTable := flag.Bool("obs", false, "print the port-call summary table after the run")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the run executes")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint cadence in driver steps (0 = off)")
	ckptDir := flag.String("ckpt-dir", "checkpoints", "checkpoint directory")
	restorePath := flag.String("restore", "", "manifest path or checkpoint directory to resume from")
	ckptIncremental := flag.Bool("ckpt-incremental", false, "write delta shards holding only patches that changed since the last checkpoint")
	ckptFullEvery := flag.Int("ckpt-full-every", 8, "with -ckpt-incremental: force a full checkpoint after this many deltas")
	ckptCompress := flag.Bool("ckpt-compress", false, "gzip checkpoint shard payloads")
	ckptKeep := flag.Int("ckpt-keep", 0, "retention: keep only the newest K checkpoints (0 = keep all)")
	ckptKeepEvery := flag.Int("ckpt-keep-every", 0, "retention: additionally keep every N-th step")
	serveAddr := flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /series, /trace) on this address while the run executes")
	eventsPath := flag.String("events", "", "append structured run events (steps, regrids, checkpoints, faults, retries) to this JSONL file")
	flightDir := flag.String("flightdir", "flightrec", "directory for crash flight-recorder dumps (written on panic, rank failure, and supervisor retries)")
	faultSpec := flag.String("fault", "", "inject a rank fault (np>1): kill:RANK@STEP or stall:RANK@STEP:SECONDS")
	maxRetries := flag.Int("max-retries", 2, "relaunch budget when a rank failure hits a checkpointed run")
	obsSample := flag.Int("obssample", 0, "record 1 of every N port calls (0 or 1 = record all)")
	obsFloor := flag.Duration("obsfloor", 0, "drop port-call observations faster than this latency floor")
	traceBuf := flag.Int("tracebuf", 0, "with -trace: spill trace events to disk past N buffered per track (bounded memory)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	repo := components.NewRepository()
	if *list {
		fmt.Println("component palette:")
		for _, c := range repo.Classes() {
			fmt.Println(" ", c)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccarun [-np P] file.scn  (or a command script)")
		os.Exit(2)
	}
	text, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var script *cca.Script
	if filepath.Ext(flag.Arg(0)) == ".scn" {
		// Compile + validate first: every wiring or parameter mistake is
		// reported with file:line:col positions before anything runs.
		c, err := scenario.Compile(flag.Arg(0), text)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if c.HasSweep() {
			fmt.Printf("scenario %s declares a sweep (%d points); running the base point only — POST the file to ccaserve /arrays for the full job array\n",
				c.Name, c.SweepPoints())
		}
		script = c.Script()
	} else {
		script, err = cca.ParseScriptString(string(text))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *arena {
		// Drop "go" commands, build serially, print the wiring.
		var filtered cca.Script
		for _, c := range script.Commands {
			if c.Verb != "go" {
				filtered.Commands = append(filtered.Commands, c)
			}
		}
		f := cca.NewFramework(repo, nil)
		if err := filtered.Execute(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(cca.Arena(f))
		return
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	model := mpi.CPlantModel
	switch *network {
	case "fastethernet":
		model = mpi.FastEthernetModel
	case "zero":
		model = mpi.ZeroModel
	}

	// One observability session per rank when any consumer asks for it;
	// with no consumer the interceptor stays off and every hot path runs
	// exactly as without this build. -serve joins the consumers: its
	// /metrics and /trace endpoints read the live group.
	var group *obs.Group
	if *tracePath != "" || *obsTable || *metricsAddr != "" || *serveAddr != "" {
		group = obs.NewGroup(*np)
		if *obsSample > 1 || *obsFloor > 0 {
			for r := 0; r < group.Size(); r++ {
				group.Rank(r).SetPortCallSampling(*obsSample, *obsFloor)
			}
		}
		if *traceBuf > 0 && *tracePath != "" {
			// Bounded-memory tracing: events past the per-track cap stream
			// to a spill directory and are merged back at WriteTrace time.
			if err := group.StreamTo(*tracePath+".spill", *traceBuf); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	if *metricsAddr != "" {
		// expvar and pprof self-register on the default mux; /metrics
		// serves the live merged registry in Prometheus text format.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			group.MergedSnapshot().WritePrometheus(w)
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics (also /debug/vars, /debug/pprof)\n", ln.Addr())
		go http.Serve(ln, nil) //nolint:errcheck // dies with the process
	}

	var fault *mpi.Fault
	if *faultSpec != "" {
		f, err := parseFault(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fault = f
	}

	// The telemetry hub exists when anything consumes it: the live HTTP
	// plane, the JSONL event log, or fault supervision (whose retries
	// dump the flight recorder). A nil hub hands out nil rank handles,
	// and every instrumented site treats those as no-ops.
	var hub *telemetry.Hub
	if *serveAddr != "" || *eventsPath != "" || fault != nil {
		hub = telemetry.NewHub(*np, group)
		hub.SetFlightDir(*flightDir)
		if *eventsPath != "" {
			if err := hub.LogTo(*eventsPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	var telSrv *telemetry.Server
	if *serveAddr != "" {
		s, err := telemetry.Serve(*serveAddr, hub)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		telSrv = s
		fmt.Printf("telemetry on http://%s (/metrics, /healthz, /series, /trace)\n", telSrv.Addr())
	}

	// With checkpointing requested, the script runs in two phases: the
	// wiring commands, then WireCheckpoint retrofits a CheckpointComponent
	// onto the finished assembly, then the "go" commands fire.
	ckptActive := *ckptEvery > 0 || *restorePath != ""
	var setup, goPhase cca.Script
	for _, c := range script.Commands {
		if c.Verb == "go" {
			goPhase.Commands = append(goPhase.Commands, c)
		} else {
			setup.Commands = append(setup.Commands, c)
		}
	}

	runOnce := func(restore string, injectFault bool) error {
		assemble := func(f *cca.Framework, comm *mpi.Comm) (err error) {
			// Crash flight recorder: a genuine panic (not the substrate's
			// own world-abort unwind, which the rank runner contains)
			// dumps the rings before the process dies.
			defer func() {
				if rec := recover(); rec != nil {
					if hub != nil && !mpi.IsAbortPanic(rec) {
						hub.DumpAll("panic", fmt.Errorf("panic: %v", rec))
					}
					panic(rec)
				}
			}()
			r := 0
			if comm != nil {
				r = comm.Rank()
			}
			if group != nil {
				f.SetObservability(group.Rank(r))
			}
			if !ckptActive && hub == nil {
				return script.Execute(f)
			}
			if err := setup.Execute(f); err != nil {
				return err
			}
			if ckptActive {
				if err := core.WireCheckpointOpts(f, core.CheckpointOptions{
					Every:       *ckptEvery,
					Dir:         *ckptDir,
					Restore:     restore,
					Incremental: *ckptIncremental,
					FullEvery:   *ckptFullEvery,
					Compress:    *ckptCompress,
					Keep:        *ckptKeep,
					KeepEvery:   *ckptKeepEvery,
				}); err != nil {
					return err
				}
			}
			if hub != nil {
				rk := hub.Rank(r)
				core.AttachTelemetry(f, rk, comm)
				if group != nil {
					// Tee tracer spans into the flight ring so dumps show
					// the spans leading up to a failure.
					group.Rank(r).Tracer().SetSink(rk)
				}
			}
			return goPhase.Execute(f)
		}
		if *np == 1 {
			return assemble(cca.NewFramework(repo, nil), nil)
		}
		w := mpi.NewWorld(*np, model)
		if injectFault && fault != nil {
			w.InjectFault(*fault)
		}
		res := cca.RunSCMDOn(w, repo, assemble)
		if err := res.Err(); err != nil {
			return err
		}
		fmt.Printf("SCMD job complete: %d ranks, simulated run time %.3f s\n", *np, res.MaxVirtualTime())
		return nil
	}

	hub.SetPhase("running")
	var runErr error
	if ckptActive {
		// Supervised execution: a rank failure rolls the job back to the
		// last durable checkpoint and relaunches (fault fires once). The
		// hub is the retry notifier: each rank failure dumps the flight
		// recorder before the rollback.
		attempt := 0
		runErr = ckpt.SuperviseNotify(*ckptDir, *maxRetries, hub, func(restore string) error {
			attempt++
			hub.StartAttempt(attempt)
			if attempt == 1 {
				restore = *restorePath
			} else {
				from := restore
				if from == "" {
					from = "cold start"
				}
				fmt.Printf("rank failure detected; relaunching from %s (attempt %d)\n", from, attempt)
			}
			return runOnce(restore, attempt == 1)
		})
	} else {
		runErr = runOnce("", true)
		if runErr != nil && errors.Is(runErr, mpi.ErrRankFailed) {
			// Unsupervised rank death still leaves a post-mortem.
			hub.DumpAll("rank-failed", runErr)
		}
	}
	if runErr != nil {
		hub.SetPhase("failed")
	} else {
		hub.SetPhase("done")
	}
	if err := hub.CloseLog(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	// Finalize profiles before any error exit: a failed run's profile
	// is exactly the one worth inspecting.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}

	if group != nil {
		if err := writeObsOutputs(group, *tracePath, *obsTable); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *obsSample > 1 || *obsFloor > 0 {
			var dropped uint64
			for r := 0; r < group.Size(); r++ {
				dropped += group.Rank(r).PortCallDropped()
			}
			fmt.Printf("port-call sampling dropped %d observations\n", dropped)
		}
	}
}

// parseFault parses -fault specs: "kill:RANK@STEP" or
// "stall:RANK@STEP:SECONDS" (0-based rank and driver step).
func parseFault(s string) (*mpi.Fault, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("ccarun: bad -fault %q (want kill:RANK@STEP or stall:RANK@STEP:SECONDS)", s)
	}
	f := &mpi.Fault{AtStep: -1}
	switch kind {
	case "kill":
		f.Kind = mpi.FaultKill
	case "stall":
		f.Kind = mpi.FaultStall
	default:
		return nil, fmt.Errorf("ccarun: bad -fault kind %q (want kill or stall)", kind)
	}
	rankStr, trig, ok := strings.Cut(rest, "@")
	if !ok {
		return nil, fmt.Errorf("ccarun: bad -fault %q: missing @STEP", s)
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		return nil, fmt.Errorf("ccarun: bad -fault rank %q: %w", rankStr, err)
	}
	f.Rank = rank
	stepStr := trig
	if f.Kind == mpi.FaultStall {
		var secStr string
		stepStr, secStr, ok = strings.Cut(trig, ":")
		if !ok {
			return nil, fmt.Errorf("ccarun: bad -fault %q: stall needs :SECONDS", s)
		}
		if f.StallSeconds, err = strconv.ParseFloat(secStr, 64); err != nil {
			return nil, fmt.Errorf("ccarun: bad -fault stall seconds %q: %w", secStr, err)
		}
	}
	if f.AtStep, err = strconv.Atoi(stepStr); err != nil {
		return nil, fmt.Errorf("ccarun: bad -fault step %q: %w", stepStr, err)
	}
	return f, nil
}

// writeObsOutputs emits the post-run artifacts: the merged Perfetto
// trace file and/or the port-call summary table.
func writeObsOutputs(group *obs.Group, tracePath string, table bool) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := group.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open with https://ui.perfetto.dev or chrome://tracing)\n", tracePath)
	}
	if table {
		fmt.Println("\nport-call summary (all ranks merged):")
		group.MergedSnapshot().WriteCallTable(os.Stdout)
	}
	return nil
}
