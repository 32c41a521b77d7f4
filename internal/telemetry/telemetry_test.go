package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ccahydro/internal/obs"
)

// readDump parses a flight-recorder dump: its header and its events.
func readDump(t *testing.T, path string) (flightHeader, []Event) {
	t.Helper()
	data, err := os.ReadFile(path)
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
	var evs []Event
	for _, ln := range lines[1:] {
		var ev Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", ln, err)
		}
		evs = append(evs, ev)
	}
	return hdr.Flight, evs
}

// dump writes h's flight buffer (h must have a flight dir) and returns
// its events.
func dump(t *testing.T, h *Hub) []Event {
	t.Helper()
	path, err := h.DumpAll("test", nil)
	if err != nil || path == "" {
		t.Fatalf("DumpAll: path=%q err=%v", path, err)
	}
	_, evs := readDump(t, path)
	return evs
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var h *Hub
	var rk *Rank
	h.SetPhase("running")
	h.Emit(EvPhase, "x")
	h.StartAttempt(1)
	h.OnRankFailure(1, errors.New("boom"))
	h.SetFlightDir(t.TempDir())
	if path, err := h.DumpAll("x", nil); err != nil || path != "" {
		t.Fatalf("nil hub DumpAll: path=%q err=%v", path, err)
	}
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	if err := h.LogTo(logPath); err != nil {
		t.Fatalf("nil hub LogTo: %v", err)
	}
	if got := h.Health(); got.Phase != "detached" {
		t.Fatalf("nil hub health phase = %q", got.Phase)
	}
	rk.NoteStep(3)
	rk.Emit(EvRegrid, 3, "")
	rk.Substrate().Emit(EvFaultInject, -1, "")
	rk.SetClock(nil)
	rk.SetSeries(nil)
	if rk.Series() != nil || h.EventCounts() != nil {
		t.Fatal("nil handles returned non-nil state")
	}
	if err := h.CloseLog(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("nil hub wrote an event log (stat err %v)", err)
	}
}

func TestEventStamping(t *testing.T) {
	h := NewHub(2, nil)
	h.SetFlightDir(t.TempDir())
	rk := h.Rank(1)
	vt := 0.0
	rk.SetClock(func() float64 { return vt })
	gen := 0
	rk.SetGeneration(func() int { return gen })

	rk.NoteStep(0)
	vt, gen = 2.5, 3
	rk.Emit(EvRegrid, -1, "finer")

	evs := dump(t, h)
	if len(evs) != 2 {
		t.Fatalf("dump holds %d events, want 2", len(evs))
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
	hdr, evs := readDump(t, filepath.Join(dir, name))
	if hdr.Reason != "retry1" || hdr.Cause == "" || hdr.Events != len(evs) {
		t.Fatalf("header: %+v (%d event lines)", hdr, len(evs))
	}
	if last := evs[len(evs)-1]; last.Kind != EvSupervisorRetry {
		t.Fatalf("last dumped event kind = %q, want %q", last.Kind, EvSupervisorRetry)
	}
	var prevSeq uint64
	sawFault := false
	for _, ev := range evs {
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

// TestFlightDumpWritesGroupTrace: spans live only in the obs tracer.
// With a group attached, a dump writes the group's merged trace beside
// the JSONL file, holding the spans emitted before the failure, and the
// JSONL dump itself holds structured events only.
func TestFlightDumpWritesGroupTrace(t *testing.T) {
	g := obs.NewGroup(2)
	h := NewHub(2, g)
	dir := t.TempDir()
	h.SetFlightDir(dir)
	h.StartAttempt(1)
	h.Rank(1).NoteStep(0)
	g.Rank(1).Span("samr", "step 0")()
	h.Rank(1).Substrate().Emit(EvFaultInject, -1, "kill at step 0")
	h.OnRankFailure(1, errors.New("mpi: rank 1 failed at step 0"))

	_, evs := readDump(t, filepath.Join(dir, "flight-001-retry1.jsonl"))
	for _, ev := range evs {
		if ev.Kind != EvPhase && ev.Kind != EvStep && ev.Kind != EvFaultInject && ev.Kind != EvSupervisorRetry {
			t.Fatalf("JSONL dump holds a non-structured event: %+v", ev)
		}
	}
	if len(evs) != 4 {
		t.Fatalf("JSONL dump holds %d events, want 4: %+v", len(evs), evs)
	}

	data, err := os.ReadFile(filepath.Join(dir, "flight-001-retry1.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Pid           int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dumped trace is not JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "samr" && ev.Name == "step 0" && ev.Pid == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dumped trace lacks rank 1's span: %+v", doc.TraceEvents)
	}
}

// TestHubWithoutFlightDirAllocatesNoBuffer: the flight buffer's only
// reader is a dump, so a hub with no flight directory (every run-server
// job) allocates none — a few hundred bytes, not flightDepth events.
func TestHubWithoutFlightDirAllocatesNoBuffer(t *testing.T) {
	const hubs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hubs; i++ {
		NewHub(1, nil)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / hubs; per > 4096 {
		t.Fatalf("NewHub(1, nil) allocates %d B, want <= 4096", per)
	}
}

// TestRingPutSnapshotInOrder: the flight buffer dumps its events oldest
// first, hub-level and rank events interleaved in sequence order.
func TestRingPutSnapshotInOrder(t *testing.T) {
	h := NewHub(2, nil)
	h.SetFlightDir(t.TempDir())
	for i := 0; i < 10; i++ {
		h.Rank(i % 2).NoteStep(i)
		h.Emit(EvPhase, fmt.Sprint(i))
	}
	evs := dump(t, h)
	if len(evs) != 20 {
		t.Fatalf("dump holds %d events, want 20", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if i%2 == 0 && (ev.Kind != EvStep || ev.Step != i/2 || ev.Rank != (i/2)%2) {
			t.Fatalf("event %d = %+v, want rank %d's step %d", i, ev, (i/2)%2, i/2)
		}
		if i%2 == 1 && (ev.Kind != EvPhase || ev.Rank != -1 || ev.Detail != fmt.Sprint(i/2)) {
			t.Fatalf("event %d = %+v, want hub phase %d", i, ev, i/2)
		}
	}
}

// TestRingOverwritesOldest: the buffer holds the last flightDepth
// events per rank, hub-wide, and drops the oldest beyond that.
func TestRingOverwritesOldest(t *testing.T) {
	h := NewHub(2, nil)
	h.SetFlightDir(t.TempDir())
	size := 2 * flightDepth
	total := size + 100
	for i := 0; i < total; i++ {
		h.Rank(0).NoteStep(i)
	}
	evs := dump(t, h)
	if len(evs) != size {
		t.Fatalf("dump holds %d events, want %d", len(evs), size)
	}
	if first := evs[0].Step; first != total-size {
		t.Fatalf("oldest surviving step = %d, want %d", first, total-size)
	}
	if last := evs[len(evs)-1].Step; last != total-1 {
		t.Fatalf("newest step = %d, want %d", last, total-1)
	}
}

// TestRingConcurrentPut hammers the hub from many writers, then dumps:
// nothing is shed, every event is intact (its Detail consistent with
// its Step) and the buffer is in sequence order.
func TestRingConcurrentPut(t *testing.T) {
	const writers = 8
	const perWriter = 200
	h := NewHub(writers, nil)
	h.SetFlightDir(t.TempDir())
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				step := w*perWriter + i
				h.Rank(w).Emit(EvRegrid, step, fmt.Sprintf("d%d", step))
			}
		}(w)
	}
	wg.Wait()
	evs := dump(t, h)
	if len(evs) != writers*perWriter || h.EventCounts()[EvRegrid] != writers*perWriter {
		t.Fatalf("dump holds %d events, counts %v; want %d", len(evs), h.EventCounts(), writers*perWriter)
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("d%d", ev.Step); ev.Detail != want || ev.Rank != ev.Step/perWriter {
			t.Fatalf("torn event: %+v", ev)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: buffer out of sequence order", i, ev.Seq)
		}
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

// TestEmitZeroAllocRingPath pins the flight-buffer emit cost: with no
// JSONL log attached, recording an event with constant strings must
// not allocate — the buffer slot is in place and the stamp closures
// return scalars.
func TestEmitZeroAllocRingPath(t *testing.T) {
	h := NewHub(1, nil)
	h.SetFlightDir(t.TempDir())
	rk := h.Rank(0)
	rk.SetClock(func() float64 { return 1.0 })
	rk.NoteStep(0) // warm the counts map for "step"
	if avg := testing.AllocsPerRun(100, func() {
		rk.NoteStep(1)
	}); avg > 0 {
		t.Errorf("NoteStep allocates %.1f objects/op, want 0", avg)
	}
}

// TestSubstrateEmitZeroAlloc pins the MPI-sink cost the same way: a
// substrate event with constant strings rides the cached stamp and the
// in-place buffer slot.
func TestSubstrateEmitZeroAlloc(t *testing.T) {
	h := NewHub(1, nil)
	h.SetFlightDir(t.TempDir())
	rk := h.Rank(0)
	sink := rk.Substrate()
	sink.Emit(EvFaultInject, 0, "warm") // warm the counts map
	if avg := testing.AllocsPerRun(100, func() {
		sink.Emit(EvFaultInject, 1, "kill at step 1")
	}); avg > 0 {
		t.Errorf("substrate Emit allocates %.1f objects/op, want 0", avg)
	}
}
