package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
	"ccahydro/internal/telemetry"
)

// Live-telemetry acceptance tests: the tentpole criteria of the
// telemetry plane. A multi-rank flame run must answer all four HTTP
// endpoints while it executes, and an injected rank kill under
// supervision must leave a flight-recorder dump ending in the fault
// injection and the retry while still recovering bit-for-bit.

func telGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// runFlameSCMDTel is runFlameSCMD with the telemetry plane attached:
// per-rank handles, virtual clock, substrate events, and the obs
// interceptor and tracer when a group rides along.
func runFlameSCMDTel(world *mpi.World, hub *telemetry.Hub, group *obs.Group, dir, restore string, every int, params []Param) ([][]float64, error) {
	var mu sync.Mutex
	ranks := make([][]float64, world.Size())
	res := cca.RunSCMDOn(world, Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		r := comm.Rank()
		if group != nil {
			f.SetObservability(group.Rank(r))
		}
		if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: params}); err != nil {
			return err
		}
		if err := WireCheckpointOpts(f, CheckpointOptions{Dir: dir, Restore: restore, Every: every}); err != nil {
			return err
		}
		AttachTelemetry(f, hub.Rank(r), comm)
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		snap, err := snapshotFieldOf(f, "phi")
		if err != nil {
			return err
		}
		mu.Lock()
		ranks[r] = snap
		mu.Unlock()
		return nil
	})
	return ranks, res.Err()
}

// TestTelemetryEndpointsLiveFlame runs the 4-rank flame with the full
// telemetry plane attached and queries /metrics, /healthz, /series and
// /trace while the run is in flight (falling back to after-the-fact
// queries only if the run outpaces the poller — the endpoints must
// answer either way).
func TestTelemetryEndpointsLiveFlame(t *testing.T) {
	params := []Param{
		{"grace", "nx", "16"}, {"grace", "ny", "16"},
		{"grace", "maxLevels", "2"},
		{"driver", "steps", "8"}, {"driver", "dt", "1e-7"},
		{"driver", "regridEvery", "2"},
	}
	group := obs.NewGroup(4)
	hub := telemetry.NewHub(4, group)
	hub.SetFlightDir(t.TempDir())
	srv, err := telemetry.Serve("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	hub.SetPhase("running")
	hub.StartAttempt(1)
	done := make(chan error, 1)
	go func() {
		_, err := runFlameSCMDTel(mpi.NewWorld(4, mpi.CPlantModel), hub, group, t.TempDir(), "", 2, params)
		done <- err
	}()

	// Wait until at least one rank has entered a step (or the run
	// finishes first on a fast machine — the endpoints answer anyway).
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := telGet(t, base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("/healthz mid-run: code %d\n%s", code, body)
		}
		var h telemetry.Health
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("/healthz not JSON: %v", err)
		}
		if len(h.Ranks) != 4 {
			t.Fatalf("/healthz lists %d ranks, want 4", len(h.Ranks))
		}
		stepped := false
		for _, r := range h.Ranks {
			if r.Step >= 1 {
				stepped = true
			}
		}
		if stepped || h.Phase == "done" {
			break
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run failed before telemetry saw a step: %v", err)
			}
			done <- nil // keep the final wait below working
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no rank reported a step within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /metrics: Prometheus text with the port-call interceptor data.
	code, body := telGet(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "# TYPE "+obs.PortCallBase+" histogram") {
		t.Fatalf("/metrics: code=%d, missing %s histogram\n%.400s", code, obs.PortCallBase, body)
	}

	// /series: NDJSON, every line decodes, stepSeconds appears.
	code, body = telGet(t, base+"/series?follow=0")
	if code != http.StatusOK {
		t.Fatalf("/series code = %d", code)
	}
	sawStepSeconds := false
	for _, ln := range strings.Split(strings.TrimSpace(body), "\n") {
		if ln == "" {
			continue
		}
		var pt telemetry.SeriesPoint
		if err := json.Unmarshal([]byte(ln), &pt); err != nil {
			t.Fatalf("/series line %q: %v", ln, err)
		}
		if pt.Key == "stepSeconds" {
			sawStepSeconds = true
		}
	}
	if !sawStepSeconds {
		t.Fatalf("/series never streamed stepSeconds:\n%.400s", body)
	}

	// /trace: a Chrome-trace JSON document with events.
	code, body = telGet(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace code = %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace snapshot has no events")
	}

	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
	hub.SetPhase("done")

	// After completion the structured log has the expected event mix.
	counts := hub.EventCounts()
	if counts[telemetry.EvStep] == 0 || counts[telemetry.EvCkptSave] == 0 {
		t.Fatalf("event counts missing steps/saves: %v", counts)
	}
}

// TestTelemetryFaultFlightRecorder is the resilience acceptance test
// with the telemetry plane attached: killing rank 1 mid-run under
// ckpt.SuperviseNotify must (a) leave a flight-recorder dump whose
// last events include the fault injection and the supervisor retry,
// (b) log the failure to the JSONL event stream, and (c) still recover
// bit-for-bit against the fault-free reference.
func TestTelemetryFaultFlightRecorder(t *testing.T) {
	params := flameCkptParams()

	refHub := telemetry.NewHub(4, nil) // exercises the attached-but-idle path
	ref, err := runFlameSCMDTel(mpi.NewWorld(4, mpi.CPlantModel), refHub, nil, t.TempDir(), "", 1, params)
	if err != nil {
		t.Fatal(err)
	}

	flightDir := t.TempDir()
	eventsPath := filepath.Join(t.TempDir(), "events.jsonl")
	hub := telemetry.NewHub(4, nil)
	hub.SetFlightDir(flightDir)
	if err := hub.LogTo(eventsPath); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var final [][]float64
	attempts := 0
	err = ckpt.SuperviseNotify(dir, 2, hub, func(restore string) error {
		attempts++
		hub.StartAttempt(attempts)
		w := mpi.NewWorld(4, mpi.CPlantModel)
		if attempts == 1 {
			w.InjectFault(mpi.Fault{Rank: 1, Kind: mpi.FaultKill, AtStep: 2, AtSend: -1})
		}
		ranks, err := runFlameSCMDTel(w, hub, nil, dir, restore, 1, params)
		if err != nil {
			return err
		}
		final = ranks
		return nil
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if err := hub.CloseLog(); err != nil {
		t.Fatal(err)
	}
	for r := range ref {
		assertSameField(t, fmt.Sprintf("recovered rank %d", r), ref[r], final[r])
	}

	// Exactly one flight dump: the retry after the kill.
	entries, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d flight dumps, want 1: %v", len(entries), entries)
	}
	data, err := os.ReadFile(filepath.Join(flightDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("flight dump too short: %d lines", len(lines))
	}
	var dump []telemetry.Event
	for _, ln := range lines[1:] { // line 0 is the {"flight":...} header
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("flight line %q: %v", ln, err)
		}
		dump = append(dump, ev)
	}
	// The dump's last events are the failure story: the injected fault
	// on rank 1, the rank deaths, and finally the supervisor retry.
	if last := dump[len(dump)-1]; last.Kind != telemetry.EvSupervisorRetry {
		t.Fatalf("last dumped event = %+v, want %s", last, telemetry.EvSupervisorRetry)
	}
	tail := dump
	if len(tail) > 32 {
		tail = tail[len(tail)-32:]
	}
	sawInject, sawFailed := false, false
	for _, ev := range tail {
		if ev.Kind == telemetry.EvFaultInject && ev.Rank == 1 {
			sawInject = true
		}
		if ev.Kind == telemetry.EvRankFailed {
			sawFailed = true
		}
	}
	if !sawInject || !sawFailed {
		t.Fatalf("dump tail missing fault story (inject=%v failed=%v): %+v", sawInject, sawFailed, tail)
	}

	// The JSONL event log captured the whole run: steps, checkpoint
	// saves, the fault, the retry, and the restore on attempt 2.
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	logCounts := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event log line %q: %v", sc.Text(), err)
		}
		logCounts[ev.Kind]++
	}
	for _, kind := range []string{
		telemetry.EvStep, telemetry.EvCkptSave, telemetry.EvCkptRestore,
		telemetry.EvFaultInject, telemetry.EvRankFailed, telemetry.EvSupervisorRetry,
	} {
		if logCounts[kind] == 0 {
			t.Fatalf("event log missing %q events: %v", kind, logCounts)
		}
	}

	// The idle reference hub never dumped and saw no failures.
	if refCounts := refHub.EventCounts(); refCounts[telemetry.EvRankFailed] != 0 || refCounts[telemetry.EvFaultInject] != 0 {
		t.Fatalf("fault-free hub recorded failures: %v", refCounts)
	}
}

// TestTelemetrySeriesMatchesStats pins the /series stream to the
// StatisticsComponent contract: the streamed points reconstruct
// exactly the Get() snapshot, per key, in order.
func TestTelemetrySeriesMatchesStats(t *testing.T) {
	params := flameCkptParams()
	hub := telemetry.NewHub(1, nil)
	f := cca.NewFramework(Repo(), nil)
	if err := AssembleRequest(f, RunRequest{Problem: "flame", Params: params}); err != nil {
		t.Fatal(err)
	}
	AttachTelemetry(f, hub.Rank(0), nil)
	srv, err := telemetry.Serve("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := f.Go("driver", "go"); err != nil {
		t.Fatal(err)
	}
	hub.SetPhase("done")

	comp, err := f.Lookup("stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := comp.(*components.StatisticsComponent)

	_, body := telGet(t, "http://"+srv.Addr()+"/series?follow=0")
	got := map[string][]float64{}
	for _, ln := range strings.Split(strings.TrimSpace(body), "\n") {
		var pt telemetry.SeriesPoint
		if err := json.Unmarshal([]byte(ln), &pt); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if pt.Index != len(got[pt.Key]) {
			t.Fatalf("out-of-order index for %s: %+v", pt.Key, pt)
		}
		got[pt.Key] = append(got[pt.Key], pt.Value)
	}
	keys := stats.Keys()
	if len(keys) == 0 {
		t.Fatal("stats recorded nothing")
	}
	for _, k := range keys {
		want := stats.Get(k)
		if len(got[k]) != len(want) {
			t.Fatalf("series %q: streamed %d points, stats hold %d", k, len(got[k]), len(want))
		}
		for i := range want {
			if got[k][i] != want[i] {
				t.Fatalf("series %q[%d]: streamed %v, stats hold %v", k, i, got[k][i], want[i])
			}
		}
	}
}

// TestTelemetryPreservesResults: telemetry never feeds back into the
// run. The 2-rank flame with a hub, an event log and a live HTTP server
// attached computes the fields of the detached run bit for bit.
func TestTelemetryPreservesResults(t *testing.T) {
	params := flameCkptParams()
	ref, err := runFlameSCMDTel(mpi.NewWorld(2, mpi.CPlantModel), nil, nil, t.TempDir(), "", 0, params)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(2, nil)
	if err := hub.LogTo(filepath.Join(t.TempDir(), "events.jsonl")); err != nil {
		t.Fatal(err)
	}
	srv, err := telemetry.Serve("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := runFlameSCMDTel(mpi.NewWorld(2, mpi.CPlantModel), hub, nil, t.TempDir(), "", 0, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.CloseLog(); err != nil {
		t.Fatal(err)
	}
	for r := range ref {
		assertSameField(t, fmt.Sprintf("attached rank %d", r), ref[r], got[r])
	}
}
