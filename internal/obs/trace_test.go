package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var o *Obs
	if o.Metrics() != nil || o.Tracer() != nil {
		t.Fatal("nil Obs accessors must return nil")
	}
	o.Span("x", "y")() // must not panic
	var tr *Tracer
	tr.Span("x", "y")()
	tr.SpanTid(3, "x", "y")()
	tr.Emit(Event{})
	tr.VirtualSend(1, "halo", 0, 1, 0, 1e-6, 8)
	tr.VirtualRecv(1, "halo", 1, 2e-6, 8)
	if tr.NextFlowID() != 0 {
		t.Fatal("nil tracer NextFlowID must return 0")
	}
}

func TestSpanAndEventCounts(t *testing.T) {
	g := NewGroup(2)
	done := g.Rank(0).Span("samr", "regrid")
	done()
	g.Rank(1).Tracer().SpanTid(2, "exec", "chunk")()

	id := g.Rank(0).Tracer().NextFlowID()
	if id == 0 {
		t.Fatal("flow id must be nonzero")
	}
	g.Rank(0).Tracer().VirtualSend(id, "halo", 0, 1, 1e-6, 2e-6, 64)
	g.Rank(1).Tracer().VirtualRecv(id, "halo", 1, 4e-6, 64)

	counts := g.EventCounts()
	if counts["samr"] != 1 || counts["exec"] != 1 {
		t.Fatalf("span counts wrong: %v", counts)
	}
	if counts["halo.flow.s"] != 1 || counts["halo.flow.f"] != 1 {
		t.Fatalf("flow counts wrong: %v", counts)
	}
}

func TestFlowIDsUniqueAcrossRanks(t *testing.T) {
	g := NewGroup(4)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := g.Rank(r).Tracer().NextFlowID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate flow id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
}

func TestWriteTraceValidJSON(t *testing.T) {
	g := NewGroup(2)
	g.Rank(0).Span("samr", "step")()
	g.Rank(0).Tracer().SpanTid(1, "exec", "chunk 0")()
	id := g.Rank(0).Tracer().NextFlowID()
	g.Rank(0).Tracer().VirtualSend(id, "halo", 0, 1, 0, 1e-6, 32)
	g.Rank(1).Tracer().VirtualRecv(id, "halo", 1, 3e-6, 32)

	var buf bytes.Buffer
	if err := g.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var metas, spans, flowS, flowF int
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		ph := ev["ph"].(string)
		switch ph {
		case "M":
			metas++
		case "X":
			spans++
			if d, ok := ev["dur"].(float64); !ok || d <= 0 {
				t.Fatalf("X event with missing/zero dur: %v", ev)
			}
		case "s":
			flowS++
		case "f":
			flowF++
			if ev["bp"] != "e" {
				t.Fatalf("flow finish must carry bp=e: %v", ev)
			}
		}
		pids[ev["pid"].(float64)] = true
	}
	if metas == 0 {
		t.Fatal("no metadata events (process/thread names)")
	}
	if spans < 4 { // step, chunk, flight, recv
		t.Fatalf("spans = %d, want >= 4", spans)
	}
	if flowS != 1 || flowF != 1 {
		t.Fatalf("flow events s=%d f=%d, want 1/1", flowS, flowF)
	}
	if !pids[float64(VirtualPid)] || !pids[0] {
		t.Fatalf("expected rank-0 and virtual pids, got %v", pids)
	}
}

func TestMergedSnapshot(t *testing.T) {
	g := NewGroup(2)
	g.Rank(0).Metrics().Counter("c").Add(1)
	g.Rank(1).Metrics().Counter("c").Add(2)
	s := g.MergedSnapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 3 {
		t.Fatalf("merged snapshot wrong: %+v", s.Counters)
	}
}

func TestPortHistogramHelper(t *testing.T) {
	g := NewGroup(1)
	h := g.Rank(0).PortHistogram("inst", "port", "Method")
	h.ObserveNs(100)
	if h.Count() != 1 {
		t.Fatal("PortHistogram did not record")
	}
}
