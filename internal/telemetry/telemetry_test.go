package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccahydro/internal/obs"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var h *Hub
	var rk *Rank
	h.SetPhase("running")
	h.Emit(EvPhase, "x")
	h.StartAttempt(1)
	h.OnRankFailure(1, errors.New("boom"))
	if _, err := h.DumpAll("x", nil); err != nil {
		t.Fatalf("nil hub DumpAll: %v", err)
	}
	if got := h.Health(); got.Phase != "detached" {
		t.Fatalf("nil hub health phase = %q", got.Phase)
	}
	rk.NoteStep(3)
	rk.Emit(EvRegrid, 3, "")
	rk.TraceEvent(obs.Event{Ph: 'X'})
	rk.SetClock(nil)
	rk.SetSeries(nil)
	if rk.Series() != nil || rk.FlightEvents() != nil {
		t.Fatal("nil rank returned non-nil state")
	}
}

func TestEventStamping(t *testing.T) {
	h := NewHub(2, nil)
	rk := h.Rank(1)
	vt := 0.0
	rk.SetClock(func() float64 { return vt })
	gen := 0
	rk.SetGeneration(func() int { return gen })

	rk.NoteStep(0)
	vt, gen = 2.5, 3
	rk.Emit(EvRegrid, -1, "finer")

	evs := rk.FlightEvents()
	if len(evs) != 2 {
		t.Fatalf("ring holds %d events, want 2", len(evs))
	}
	rg := evs[1]
	if rg.Kind != EvRegrid || rg.Rank != 1 || rg.Step != 0 || rg.VT != 2.5 || rg.Gen != 3 || rg.Detail != "finer" {
		t.Fatalf("bad stamp: %+v", rg)
	}
	if evs[0].Seq >= rg.Seq {
		t.Fatalf("sequence not monotone: %d then %d", evs[0].Seq, rg.Seq)
	}

	health := h.Health()
	if health.Ranks[1].Step != 0 || health.Ranks[1].VirtualTime != 2.5 || health.Ranks[1].Generation != 3 {
		t.Fatalf("health rollup: %+v", health.Ranks[1])
	}
	if health.Ranks[0].Step != 0 || !health.Ranks[0].Alive {
		t.Fatalf("untouched rank: %+v", health.Ranks[0])
	}
}

func TestHealthTracksCheckpointAndLiveness(t *testing.T) {
	h := NewHub(2, nil)
	if got := h.Health().LastCheckpointStep; got != -1 {
		t.Fatalf("pristine lastCheckpointStep = %d, want -1", got)
	}
	h.Rank(0).Emit(EvCkptSave, 4, "full")
	h.Rank(1).Emit(EvRankFailed, -1, "mpi: rank 1 failed at step 5")
	doc := h.Health()
	if doc.LastCheckpointStep != 4 {
		t.Fatalf("lastCheckpointStep = %d, want 4", doc.LastCheckpointStep)
	}
	if doc.Ranks[1].Alive || !doc.Ranks[0].Alive {
		t.Fatalf("liveness: %+v", doc.Ranks)
	}
	h.StartAttempt(2)
	if !h.Health().Ranks[1].Alive {
		t.Fatal("StartAttempt did not revive rank 1")
	}
	if h.Health().Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", h.Health().Attempt)
	}
}

func TestJSONLEventLog(t *testing.T) {
	h := NewHub(1, nil)
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := h.LogTo(path); err != nil {
		t.Fatal(err)
	}
	h.Rank(0).NoteStep(0)
	h.Rank(0).Emit(EvCkptSave, 0, "full")
	h.SetPhase("done")
	if err := h.CloseLog(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kinds []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []string{EvStep, EvCkptSave, EvPhase}
	if len(kinds) != len(want) {
		t.Fatalf("log has kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("log kind %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestFlightDump(t *testing.T) {
	h := NewHub(2, nil)
	dir := t.TempDir()
	h.SetFlightDir(dir)
	h.StartAttempt(1)
	h.Rank(0).NoteStep(0)
	h.Rank(1).NoteStep(0)
	h.Rank(1).Emit(EvFaultInject, -1, "kill at step 0")
	h.OnRankFailure(1, errors.New("mpi: rank 1 failed at step 0"))

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d dumps written, want 1", len(entries))
	}
	name := entries[0].Name()
	if !strings.HasPrefix(name, "flight-001-retry1") {
		t.Fatalf("dump name = %q", name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var hdr struct {
		Flight flightHeader `json:"flight"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("bad header line: %v", err)
	}
	if hdr.Flight.Reason != "retry1" || hdr.Flight.Cause == "" || hdr.Flight.Events != len(lines)-1 {
		t.Fatalf("header: %+v (%d event lines)", hdr.Flight, len(lines)-1)
	}
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != EvSupervisorRetry {
		t.Fatalf("last dumped event kind = %q, want %q", last.Kind, EvSupervisorRetry)
	}
	var prevSeq uint64
	sawFault := false
	for _, ln := range lines[1:] {
		var ev Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq <= prevSeq {
			t.Fatalf("dump not sorted by seq: %d after %d", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if ev.Kind == EvFaultInject {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("dump does not contain the fault injection")
	}

	// No flight dir configured: silent no-op.
	h2 := NewHub(1, nil)
	if path, err := h2.DumpAll("x", nil); err != nil || path != "" {
		t.Fatalf("dump without dir: path=%q err=%v", path, err)
	}
}

func TestTraceEventTee(t *testing.T) {
	g := obs.NewGroup(1)
	h := NewHub(1, g)
	rk := h.Rank(0)
	g.Rank(0).Tracer().SetSink(rk)
	g.Rank(0).Span("samr", "step 0")()
	g.Rank(0).Tracer().Emit(obs.Event{Ph: 's', Cat: "halo", Name: "flight"}) // flow: filtered

	evs := rk.FlightEvents()
	if len(evs) != 1 {
		t.Fatalf("%d teed events, want 1 (the span, no flow)", len(evs))
	}
	if evs[0].Kind != EvSpan || evs[0].Cat != "samr" || evs[0].Detail != "step 0" {
		t.Fatalf("teed span: %+v", evs[0])
	}
	// Teed events stay out of the structured counters.
	if n := h.EventCounts()[EvSpan]; n != 0 {
		t.Fatalf("span counted %d times in structured counts", n)
	}
}

func TestWatchNotifies(t *testing.T) {
	h := NewHub(1, nil)
	c, cancel := h.Watch()
	defer cancel()
	h.Rank(0).NoteStep(0)
	select {
	case <-c:
	default:
		t.Fatal("watch channel not notified")
	}
	v := h.Version()
	if v == 0 {
		t.Fatal("version did not advance")
	}
}

// TestEmitZeroAllocRingPath pins the flight-ring emit cost: with no
// JSONL log attached, recording an event with constant strings must
// not allocate — the ring slot is in place and the stamp closures
// return scalars.
func TestEmitZeroAllocRingPath(t *testing.T) {
	h := NewHub(1, nil)
	rk := h.Rank(0)
	rk.SetClock(func() float64 { return 1.0 })
	rk.NoteStep(0) // warm the counts map for "step"
	if avg := testing.AllocsPerRun(100, func() {
		rk.NoteStep(1)
	}); avg > 0 {
		t.Errorf("NoteStep allocates %.1f objects/op, want 0", avg)
	}
}

// TestTraceEventZeroAlloc pins the tracer-tee cost: teeing a span into
// the flight ring copies string headers and cached stamps only — no
// allocation, whatever the emit rate.
func TestTraceEventZeroAlloc(t *testing.T) {
	h := NewHub(1, nil)
	rk := h.Rank(0)
	rk.SetClock(func() float64 { return 1.0 })
	rk.NoteStep(0) // populate the cached stamp
	ev := obs.Event{Ph: 'X', Cat: "exec", Name: "chunk", Ts: 10, Dur: 2}
	if avg := testing.AllocsPerRun(100, func() {
		rk.TraceEvent(ev)
	}); avg > 0 {
		t.Errorf("TraceEvent allocates %.1f objects/op, want 0", avg)
	}
}

// TestSubstrateEmitZeroAlloc pins the MPI-sink cost the same way: a
// substrate event with constant strings rides the cached stamp and the
// in-place ring slot.
func TestSubstrateEmitZeroAlloc(t *testing.T) {
	h := NewHub(1, nil)
	rk := h.Rank(0)
	sink := rk.Substrate()
	sink.Emit(EvFaultInject, 0, "warm") // warm the counts map
	if avg := testing.AllocsPerRun(100, func() {
		sink.Emit(EvFaultInject, 1, "kill at step 1")
	}); avg > 0 {
		t.Errorf("substrate Emit allocates %.1f objects/op, want 0", avg)
	}
}
