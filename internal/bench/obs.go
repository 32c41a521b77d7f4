package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
	"ccahydro/internal/telemetry"
)

// The observability experiment has two halves:
//
//  1. An overhead study in the spirit of the paper's Table 4: the
//     component cell-integration loop timed with the port-call
//     interceptor off and on. Wall-clock seconds are host noise, so
//     they are printed but kept out of the JSON artifact.
//  2. A trace-shape study: a pinned 2-rank flame run with per-rank
//     worker pools and full observability, reduced to the counts that a
//     correct instrumentation layer must reproduce exactly — spans per
//     category, balanced flow events, port-call totals. These are
//     deterministic (fixed assembly, fixed steps, pinned pool width,
//     virtual network clock) and form BENCH_obs.json.

// ObsOverheadRow is one interceptor-overhead measurement.
type ObsOverheadRow struct {
	NCells      int
	PlainSec    float64 // observability detached
	ObservedSec float64 // interceptor + histograms enabled
	PctDiff     float64
	// CallsRecorded is the number of port-call observations the
	// instrumented run captured (deterministic for a fixed horizon).
	CallsRecorded uint64
}

// RunObsOverhead times the Table 4 component loop with the interceptor
// off and on. Both paths run the identical assembly; the only variable
// is whether GetPort hands out instrumented proxies.
func RunObsOverhead(cells []int, tEnd float64) ([]ObsOverheadRow, error) {
	plain, err := newComponentCellIntegrator()
	if err != nil {
		return nil, err
	}
	observed, err := newComponentCellIntegrator()
	if err != nil {
		return nil, err
	}
	group := obs.NewGroup(1)
	observed.f.SetObservability(group.Rank(0))

	cfg := DefaultTable4Config
	if _, _, err := plain.run(50, tEnd, cfg.T0, cfg.P0); err != nil {
		return nil, err
	}
	if _, _, err := observed.run(50, tEnd, cfg.T0, cfg.P0); err != nil {
		return nil, err
	}
	baseCalls := portCallTotal(group.MergedSnapshot())

	var rows []ObsOverheadRow
	for _, nc := range cells {
		plainT, obsT := math.Inf(1), math.Inf(1)
		for rep := 0; rep < 2; rep++ {
			// Interleaved best-of-2, as in RunTable4, so host noise hits
			// both paths alike.
			pt, _, err := plain.run(nc, tEnd, cfg.T0, cfg.P0)
			if err != nil {
				return nil, err
			}
			ot, _, err := observed.run(nc, tEnd, cfg.T0, cfg.P0)
			if err != nil {
				return nil, err
			}
			plainT = math.Min(plainT, pt)
			obsT = math.Min(obsT, ot)
		}
		calls := portCallTotal(group.MergedSnapshot())
		rows = append(rows, ObsOverheadRow{
			NCells:        nc,
			PlainSec:      plainT,
			ObservedSec:   obsT,
			PctDiff:       100 * (obsT - plainT) / plainT,
			CallsRecorded: calls - baseCalls,
		})
		baseCalls = calls
	}
	return rows, nil
}

// portCallTotal sums every port_call_seconds observation in s.
func portCallTotal(s obs.Snapshot) uint64 {
	var total uint64
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, obs.PortCallBase+"{") {
			total += h.Count
		}
	}
	return total
}

// PrintObsOverhead renders the overhead study.
func PrintObsOverhead(w io.Writer, rows []ObsOverheadRow) {
	fmt.Fprintf(w, "Interceptor overhead: component cell loop, observability off vs on\n")
	fmt.Fprintf(w, "(the Table 4 protocol with the port-call interceptor as the variable)\n\n")
	fmt.Fprintf(w, "%8s %12s %12s %9s %14s\n", "Ncells", "plain (s)", "observed (s)", "% diff.", "calls recorded")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.4f %12.4f %9.2f %14d\n",
			r.NCells, r.PlainSec, r.ObservedSec, r.PctDiff, r.CallsRecorded)
	}
	fmt.Fprintf(w, "\nWall seconds are host-dependent and excluded from the JSON artifact.\n")
}

// PortCallCount is one wire-method's deterministic invocation count.
type PortCallCount struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// ObsTraceReport is the deterministic shape of a fully instrumented
// 2-rank flame run — the BENCH_obs.json artifact. Every field is fixed
// by the algorithm (assembly, steps, pinned pool width, virtual network
// model), never by host timing.
type ObsTraceReport struct {
	Network        string          `json:"network"`
	Ranks          int             `json:"ranks"`
	Workers        int             `json:"workersPerRank"`
	Steps          int             `json:"steps"`
	Nx             int             `json:"nx"`
	MaxLevels      int             `json:"maxLevels"`
	EventCounts    map[string]int  `json:"eventCounts"`
	PortCalls      []PortCallCount `json:"portCalls"`
	TotalPortCalls uint64          `json:"totalPortCalls"`
	HaloFlowPairs  int             `json:"haloFlowPairs"`
	MaxVirtualTime float64         `json:"maxVirtualTimeSec"`
	// Telemetry is the live-plane study (RunTelemetryStudy), attached by
	// the experiments driver so BENCH_obs.json carries both.
	Telemetry *TelemetryReport `json:"telemetry,omitempty"`
}

// RunObsTrace executes the pinned instrumented flame and reduces its
// observability output to the deterministic report. The group is also
// returned so callers can write the full Perfetto trace.
func RunObsTrace() (*ObsTraceReport, *obs.Group, error) {
	rep := &ObsTraceReport{Network: "cplant", Ranks: 2, Workers: 2, Steps: 2, Nx: 24, MaxLevels: 2}
	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: fmt.Sprint(rep.Nx)},
		{Instance: "grace", Key: "ny", Value: fmt.Sprint(rep.Nx)},
		{Instance: "grace", Key: "maxLevels", Value: fmt.Sprint(rep.MaxLevels)},
		{Instance: "driver", Key: "steps", Value: fmt.Sprint(rep.Steps)},
		{Instance: "driver", Key: "dt", Value: "1e-7"},
		{Instance: "driver", Key: "regridEvery", Value: "1"},
		{Instance: "pool", Key: "workers", Value: fmt.Sprint(rep.Workers)},
	}
	group := obs.NewGroup(rep.Ranks)
	res := cca.RunSCMD(rep.Ranks, mpi.CPlantModel, core.Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		f.SetObservability(group.Rank(comm.Rank()))
		if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params}); err != nil {
			return err
		}
		if err := f.Instantiate("ExecutionComponent", "pool"); err != nil {
			return err
		}
		for _, user := range []string{"driver", "rkc", "implicit", "maxdiff"} {
			if err := f.Connect(user, "exec", "pool", "exec"); err != nil {
				return err
			}
		}
		return f.Go("driver", "go")
	})
	if err := res.Err(); err != nil {
		return nil, nil, err
	}

	rep.EventCounts = group.EventCounts()
	rep.HaloFlowPairs = rep.EventCounts["halo.flow.s"]
	if rep.EventCounts["halo.flow.f"] != rep.HaloFlowPairs {
		return nil, nil, fmt.Errorf("obs: unbalanced halo flows: %d starts, %d finishes",
			rep.HaloFlowPairs, rep.EventCounts["halo.flow.f"])
	}
	snap := group.MergedSnapshot()
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, obs.PortCallBase+"{") && h.Count > 0 {
			rep.PortCalls = append(rep.PortCalls, PortCallCount{Name: h.Name, Count: h.Count})
			rep.TotalPortCalls += h.Count
		}
	}
	sort.Slice(rep.PortCalls, func(a, b int) bool { return rep.PortCalls[a].Name < rep.PortCalls[b].Name })
	rep.MaxVirtualTime = res.MaxVirtualTime()
	return rep, group, nil
}

// PrintObsTrace renders the trace-shape study.
func PrintObsTrace(w io.Writer, rep *ObsTraceReport) {
	fmt.Fprintf(w, "Instrumented flame: %d ranks x %d workers, %d steps, nx=%d, %d levels (%s network)\n\n",
		rep.Ranks, rep.Workers, rep.Steps, rep.Nx, rep.MaxLevels, rep.Network)
	var cats []string
	for c := range rep.EventCounts {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	fmt.Fprintf(w, "%-16s %8s\n", "trace category", "events")
	for _, c := range cats {
		fmt.Fprintf(w, "%-16s %8d\n", c, rep.EventCounts[c])
	}
	fmt.Fprintf(w, "\nhalo flow pairs (post->completion arrows): %d\n", rep.HaloFlowPairs)
	fmt.Fprintf(w, "port-call observations across all wires:   %d\n", rep.TotalPortCalls)
	fmt.Fprintf(w, "simulated run time:                        %.6f s\n", rep.MaxVirtualTime)
}

// TelemetryReport is the deterministic shape of the telemetry-plane
// study: the pinned 2-rank flame run twice, once fully detached and
// once with a Hub and a live HTTP server attached (no client connected
// during the run — the paper's "monitoring must not perturb the
// physics" bar). Everything here is algorithm-determined; wall-clock
// never enters the artifact.
type TelemetryReport struct {
	Ranks int `json:"ranks"`
	Steps int `json:"steps"`
	// EventCounts are the structured telemetry events the attached run
	// recorded, by kind (steps, regrids, ...).
	EventCounts map[string]uint64 `json:"eventCounts"`
	// SeriesPointsServed is how many NDJSON points one /series?follow=0
	// request returned after the run — ranks x series x samples.
	SeriesPointsServed int `json:"seriesPointsServed"`
	// HealthRanks is the rank count the /healthz document reported.
	HealthRanks int `json:"healthRanks"`
	// BitIdentical is the study's verdict: the attached run's final
	// driver extrema and simulated clock equal the detached run's.
	BitIdentical bool `json:"bitIdenticalToDetached"`
}

// telemetryFlameRun executes the pinned flame with an optional hub
// attached and returns rank 0's final extrema plus the simulated clock.
func telemetryFlameRun(ranks, steps int, hub *telemetry.Hub) (tmax, tmin, vmax float64, err error) {
	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: "24"},
		{Instance: "grace", Key: "ny", Value: "24"},
		{Instance: "grace", Key: "maxLevels", Value: "2"},
		{Instance: "driver", Key: "steps", Value: fmt.Sprint(steps)},
		{Instance: "driver", Key: "dt", Value: "1e-7"},
		{Instance: "driver", Key: "regridEvery", Value: "1"},
	}
	var mu sync.Mutex
	res := cca.RunSCMD(ranks, mpi.CPlantModel, core.Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params}); err != nil {
			return err
		}
		core.AttachTelemetry(f, hub.Rank(comm.Rank()), comm)
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		if comm.Rank() == 0 {
			comp, err := f.Lookup("driver")
			if err != nil {
				return err
			}
			dr := comp.(*components.RDDriver)
			mu.Lock()
			tmax, tmin = dr.TMax, dr.TMin
			mu.Unlock()
		}
		return nil
	})
	if err := res.Err(); err != nil {
		return 0, 0, 0, err
	}
	return tmax, tmin, res.MaxVirtualTime(), nil
}

// RunTelemetryStudy proves the telemetry plane is free when watched and
// absent when detached: same flame, hub+server attached vs nothing,
// and the attached run must land on bit-identical extrema and simulated
// time. The endpoints are then actually queried (one /healthz, one
// /series drain) so the artifact also pins the served shape.
func RunTelemetryStudy() (*TelemetryReport, error) {
	const ranks, steps = 2, 2
	rep := &TelemetryReport{Ranks: ranks, Steps: steps}

	plainTMax, plainTMin, plainVMax, err := telemetryFlameRun(ranks, steps, nil)
	if err != nil {
		return nil, err
	}

	hub := telemetry.NewHub(ranks, nil)
	srv, err := telemetry.Serve("127.0.0.1:0", hub)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	hub.SetPhase("running")
	telTMax, telTMin, telVMax, err := telemetryFlameRun(ranks, steps, hub)
	if err != nil {
		return nil, err
	}
	hub.SetPhase("done")

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		return nil, err
	}
	var health telemetry.Health
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rep.HealthRanks = len(health.Ranks)

	resp, err = http.Get("http://" + srv.Addr() + "/series?follow=0")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) > 0 {
			rep.SeriesPointsServed++
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, err
	}

	rep.EventCounts = hub.EventCounts()
	rep.BitIdentical = telTMax == plainTMax && telTMin == plainTMin && telVMax == plainVMax
	if !rep.BitIdentical {
		return nil, fmt.Errorf("telemetry perturbed the run: TMax %v vs %v, TMin %v vs %v, vt %v vs %v",
			telTMax, plainTMax, telTMin, plainTMin, telVMax, plainVMax)
	}
	return rep, nil
}

// PrintTelemetryStudy renders the telemetry-plane study.
func PrintTelemetryStudy(w io.Writer, rep *TelemetryReport) {
	fmt.Fprintf(w, "Telemetry plane: %d-rank flame, %d steps, hub + HTTP server attached vs detached\n\n", rep.Ranks, rep.Steps)
	var kinds []string
	for k := range rep.EventCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "%-20s %8s\n", "structured event", "count")
	for _, k := range kinds {
		fmt.Fprintf(w, "%-20s %8d\n", k, rep.EventCounts[k])
	}
	fmt.Fprintf(w, "\n/series points served after the run:  %d\n", rep.SeriesPointsServed)
	fmt.Fprintf(w, "/healthz ranks reported:              %d\n", rep.HealthRanks)
	fmt.Fprintf(w, "attached run bit-identical to detached: %v\n", rep.BitIdentical)
}
