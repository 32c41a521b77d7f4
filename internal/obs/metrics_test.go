package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("steps_total") != c {
		t.Fatal("Counter not idempotent: second lookup returned a different instance")
	}
	g := r.Gauge("dt_seconds")
	g.Set(1e-7)
	if got := g.Value(); got != 1e-7 {
		t.Fatalf("gauge = %g, want 1e-7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1ns -> bucket index bits.Len64(1)=1; 1024ns -> index 11.
	h.ObserveNs(1)
	h.ObserveNs(1024)
	h.ObserveNs(-5) // clamps to 0 -> bucket 0
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot histograms = %d, want 1", len(s.Histograms))
	}
	hs := s.Histograms[0]
	var total uint64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket counts sum to %d, want 3", total)
	}
	// Quantile must land on a bucket upper bound >= the observation.
	if q := hs.Quantile(1.0); q < 1024e-9 {
		t.Fatalf("p100 = %g, want >= 1024ns", q)
	}
	if m := hs.Mean(); m <= 0 {
		t.Fatalf("mean = %g, want > 0", m)
	}
}

func TestHistogramObserveSeconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t")
	h.Observe(2e-6) // 2000 ns
	if got, want := h.SumSeconds(), 2e-6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h").ObserveNs(int64(i + 1))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestSnapshotSortedAndMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("z").Add(1)
	a.Counter("a").Add(2)
	a.Gauge("g").Set(1)
	a.Histogram("h").ObserveNs(10)
	b.Counter("z").Add(3)
	b.Gauge("g").Set(2)
	b.Histogram("h").ObserveNs(20)

	sa := a.Snapshot()
	if sa.Counters[0].Name != "a" || sa.Counters[1].Name != "z" {
		t.Fatalf("snapshot counters not sorted: %+v", sa.Counters)
	}

	m := Merge(sa, b.Snapshot())
	byName := map[string]uint64{}
	for _, c := range m.Counters {
		byName[c.Name] = c.Value
	}
	if byName["z"] != 4 || byName["a"] != 2 {
		t.Fatalf("merged counters wrong: %v", byName)
	}
	if m.Gauges[0].Value != 2 {
		t.Fatalf("merged gauge = %g, want last-wins 2", m.Gauges[0].Value)
	}
	if m.Histograms[0].Count != 2 {
		t.Fatalf("merged hist count = %d, want 2", m.Histograms[0].Count)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total").Add(3)
	r.Histogram(PortCallName("flame", "rhs", "EvalPatch")).ObserveNs(500)

	var prom bytes.Buffer
	r.Snapshot().WritePrometheus(&prom)
	text := prom.String()
	for _, want := range []string{
		"# TYPE steps_total counter",
		"steps_total 3",
		"# TYPE port_call_seconds histogram",
		`instance="flame"`,
		`le="+Inf"`,
		"port_call_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestPortCallNameAndCallTable(t *testing.T) {
	name := PortCallName("driver", "mesh", "Regrid")
	if want := `port_call_seconds{instance="driver",port="mesh",method="Regrid"}`; name != want {
		t.Fatalf("PortCallName = %q, want %q", name, want)
	}
	r := NewRegistry()
	r.Histogram(name).ObserveNs(1000)
	var buf bytes.Buffer
	r.Snapshot().WriteCallTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "driver") || !strings.Contains(out, "Regrid") {
		t.Fatalf("call table missing entries:\n%s", out)
	}
}
