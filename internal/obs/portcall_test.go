package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// With no policy installed, every observation is recorded — the default
// must behave exactly like the pre-sampling interceptor.
func TestPortCallRecordsAllByDefault(t *testing.T) {
	g := NewGroup(1)
	o := g.Rank(0)
	pc := o.PortCall("chem", "rates", "Rates")
	for i := 0; i < 100; i++ {
		pc.ObserveSince(time.Now())
	}
	if got := o.PortHistogram("chem", "rates", "Rates").Count(); got != 100 {
		t.Fatalf("recorded %d/100 calls", got)
	}
	if got := o.PortCallDropped(); got != 0 {
		t.Fatalf("dropped %d calls with no policy", got)
	}
}

// 1-in-N sampling: recorded + dropped must equal the true call volume.
func TestPortCallSamplingKeepsTotalsHonest(t *testing.T) {
	g := NewGroup(1)
	o := g.Rank(0)
	o.SetPortCallSampling(10, 0)
	pc := o.PortCall("chem", "rates", "Rates")
	const calls = 1000
	for i := 0; i < calls; i++ {
		pc.ObserveSince(time.Now())
	}
	rec := o.PortHistogram("chem", "rates", "Rates").Count()
	drop := o.PortCallDropped()
	if rec != calls/10 {
		t.Fatalf("recorded %d calls, want %d", rec, calls/10)
	}
	if rec+drop != calls {
		t.Fatalf("recorded %d + dropped %d != %d issued", rec, drop, calls)
	}
}

// The latency floor discards fast calls and keeps slow ones.
func TestPortCallLatencyFloor(t *testing.T) {
	g := NewGroup(1)
	o := g.Rank(0)
	o.SetPortCallSampling(0, 5*time.Millisecond)
	pc := o.PortCall("solver", "integrator", "Solve")
	pc.ObserveSince(time.Now())                             // ~0s: under the floor
	pc.ObserveSince(time.Now().Add(-20 * time.Millisecond)) // over it
	if got := o.PortHistogram("solver", "integrator", "Solve").Count(); got != 1 {
		t.Fatalf("recorded %d calls, want 1 (floor should drop the fast one)", got)
	}
	if got := o.PortCallDropped(); got != 1 {
		t.Fatalf("dropped %d calls, want 1", got)
	}
	// Clearing the policy records everything again.
	o.SetPortCallSampling(0, 0)
	pc.ObserveSince(time.Now())
	if got := o.PortHistogram("solver", "integrator", "Solve").Count(); got != 2 {
		t.Fatalf("recorded %d calls after clearing policy, want 2", got)
	}
}

// Nil receivers must stay no-ops (the disabled-observability path).
func TestPortCallNilSafe(t *testing.T) {
	var o *Obs
	pc := o.PortCall("a", "b", "c")
	pc.ObserveSince(time.Now())
	o.SetPortCallSampling(4, time.Millisecond)
	if o.PortCallDropped() != 0 {
		t.Fatal("nil Obs dropped calls")
	}
}

// Spill streaming: in-memory growth stays bounded by the shard cap and
// the merged trace still contains every event.
func TestTracerSpillBoundsMemory(t *testing.T) {
	dir := t.TempDir()
	g := NewGroup(2)
	const shardCap = 16
	if err := g.StreamTo(dir, shardCap); err != nil {
		t.Fatalf("StreamTo: %v", err)
	}
	const perRank = 1000
	for r := 0; r < 2; r++ {
		tr := g.Rank(r).Tracer()
		for i := 0; i < perRank; i++ {
			tr.Emit(Event{Ph: 'X', Cat: "test", Name: fmt.Sprintf("e%d", i), Pid: -1, Tid: i % 3, Ts: float64(i)})
		}
	}
	for r := 0; r < 2; r++ {
		tr := g.Rank(r).Tracer()
		for i := range tr.sh {
			tr.sh[i].mu.Lock()
			n := len(tr.sh[i].evs)
			tr.sh[i].mu.Unlock()
			if n >= shardCap {
				t.Fatalf("rank %d shard %d holds %d events, cap %d", r, i, n, shardCap)
			}
		}
	}
	counts := g.EventCounts()
	if counts["test"] != 2*perRank {
		t.Fatalf("EventCounts[test] = %d, want %d", counts["test"], 2*perRank)
	}
	var buf bytes.Buffer
	if err := g.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var slices int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			slices++
		}
	}
	if slices != 2*perRank {
		t.Fatalf("trace holds %d slices, want %d", slices, 2*perRank)
	}
}

// Re-entering StreamTo (a restore reusing the trace dir) truncates the
// old segment instead of duplicating events.
func TestTracerSpillReopensCleanly(t *testing.T) {
	dir := t.TempDir()
	g := NewGroup(1)
	if err := g.StreamTo(dir, 4); err != nil {
		t.Fatal(err)
	}
	tr := g.Rank(0).Tracer()
	for i := 0; i < 100; i++ {
		tr.Emit(Event{Ph: 'X', Cat: "first", Name: "x", Pid: -1, Tid: 0, Ts: float64(i)})
	}
	// Fresh group over the same dir — the restored run.
	g2 := NewGroup(1)
	if err := g2.StreamTo(dir, 4); err != nil {
		t.Fatal(err)
	}
	tr2 := g2.Rank(0).Tracer()
	for i := 0; i < 10; i++ {
		tr2.Emit(Event{Ph: 'X', Cat: "second", Name: "y", Pid: -1, Tid: 0, Ts: float64(i)})
	}
	counts := g2.EventCounts()
	if counts["first"] != 0 || counts["second"] != 10 {
		t.Fatalf("restored trace counts %v, want only 10 'second' events", counts)
	}
}

// A tracer with streaming off behaves exactly as before (all in memory).
func TestTracerNoSpillUnchanged(t *testing.T) {
	g := NewGroup(1)
	tr := g.Rank(0).Tracer()
	for i := 0; i < 500; i++ {
		tr.Emit(Event{Ph: 'X', Cat: "mem", Name: "x", Pid: -1, Tid: 0, Ts: float64(i)})
	}
	if got := g.EventCounts()["mem"]; got != 500 {
		t.Fatalf("EventCounts = %d, want 500", got)
	}
}
