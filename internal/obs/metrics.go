// Package obs is the framework-level observability layer: a lock-cheap
// sharded metrics registry (counters, gauges, latency histograms with
// fixed log-spaced buckets) and a Chrome-trace-event tracer that the
// cca port-call interceptor, the exec worker pool, the mpi substrate,
// and the SAMR phase drivers all feed. It is a leaf package — only the
// standard library — so every layer of the stack may import it.
//
// The paper's future-work item (4) plans to "characterize the
// performance characteristics of individual components and their
// assemblies" with TAU; this package carries out that plan:
// instrumentation lives on the wires and in the substrate, not
// inside components, so any assembly is observable without changing a
// single component (the FLASH/Cactus argument for framework-level
// instrumentation).
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// nShards is the registry shard count. Get-or-create calls hash the
// metric name onto a shard; observation hot paths never touch a shard
// lock (instruments are held by pointer and update with atomics).
const nShards = 16

// histBuckets is the fixed bucket count of every histogram: bucket k
// holds observations whose duration in nanoseconds n satisfies
// bits.Len64(n) == k, i.e. n in [2^(k-1), 2^k). Bucket 0 is exactly
// zero. 64 log2-spaced buckets cover 1 ns .. ~292 years.
const histBuckets = 65

// Counter is a monotonically increasing count.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates durations into fixed log2-spaced buckets. All
// methods are safe for concurrent use and allocation-free: one atomic
// add per bucket, count, and sum.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.ObserveNs(int64(seconds * 1e9))
}

// ObserveNs records one duration in nanoseconds.
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumSeconds returns the total observed time.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNs.Load()) / 1e9 }

// bucketUpperSeconds is the inclusive upper bound of bucket k.
func bucketUpperSeconds(k int) float64 {
	if k == 0 {
		return 0
	}
	return math.Ldexp(1, k) / 1e9 // 2^k ns
}

// regShard is one lock domain of the registry.
type regShard struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Registry is the sharded instrument store. Get-or-create by name is
// the only locked path; returned instruments are updated lock-free.
type Registry struct {
	shards [nShards]regShard
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		s := &r.shards[i]
		s.counters = make(map[string]*Counter)
		s.gauges = make(map[string]*Gauge)
		s.hists = make(map[string]*Histogram)
	}
	return r
}

// shardOf hashes a name onto its shard (FNV-1a).
func (r *Registry) shardOf(name string) *regShard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return &r.shards[h%nShards]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	s := r.shardOf(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{name: name}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	s := r.shardOf(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Names may carry a Prometheus label block: `base{k="v",...}`.
func (r *Registry) Histogram(name string) *Histogram {
	s := r.shardOf(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{name: name}
		s.hists[name] = h
	}
	return h
}

// CounterSnapshot is one counter's frozen state.
type CounterSnapshot struct {
	Name  string
	Value uint64
}

// GaugeSnapshot is one gauge's frozen state.
type GaugeSnapshot struct {
	Name  string
	Value float64
}

// BucketCount is one non-empty histogram bucket: Count observations at
// most UpperSeconds long (and longer than the previous bucket's bound).
type BucketCount struct {
	UpperSeconds float64
	Count        uint64
}

// HistogramSnapshot is one histogram's frozen state. Buckets holds only
// the non-empty buckets, in increasing bound order.
type HistogramSnapshot struct {
	Name       string
	Count      uint64
	SumSeconds float64
	Buckets    []BucketCount
}

// Mean returns the average observation in seconds.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumSeconds / float64(h.Count)
}

// Quantile interpolates the q-quantile (q in [0,1]) from the log-spaced
// buckets: the answer is geometric within the containing bucket, so it
// is an order-of-magnitude estimate, which is what latency histograms
// are for.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for _, b := range h.Buckets {
		cum += float64(b.Count)
		if cum >= target {
			return b.UpperSeconds
		}
	}
	return h.Buckets[len(h.Buckets)-1].UpperSeconds
}

// Snapshot is a frozen, name-sorted view of a registry (or a merge of
// several — see Merge).
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Snapshot freezes the registry. Concurrent observations may or may not
// be included; each instrument's (count, sum, buckets) triple is read
// without a global lock, so a snapshot taken while observations are in
// flight is approximate — taken at quiescence it is exact.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for name, c := range s.counters {
			snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: c.Value()})
		}
		for name, g := range s.gauges {
			snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
		}
		for name, h := range s.hists {
			hs := HistogramSnapshot{Name: name, Count: h.Count(), SumSeconds: h.SumSeconds()}
			for k := 0; k < histBuckets; k++ {
				if n := h.buckets[k].Load(); n > 0 {
					hs.Buckets = append(hs.Buckets, BucketCount{UpperSeconds: bucketUpperSeconds(k), Count: n})
				}
			}
			snap.Histograms = append(snap.Histograms, hs)
		}
		s.mu.Unlock()
	}
	sort.Slice(snap.Counters, func(a, b int) bool { return snap.Counters[a].Name < snap.Counters[b].Name })
	sort.Slice(snap.Gauges, func(a, b int) bool { return snap.Gauges[a].Name < snap.Gauges[b].Name })
	sort.Slice(snap.Histograms, func(a, b int) bool { return snap.Histograms[a].Name < snap.Histograms[b].Name })
	return snap
}

// Merge combines per-rank snapshots into one: counters and histogram
// (count, sum, buckets) add; gauges keep the last rank's value.
func Merge(snaps ...Snapshot) Snapshot {
	ctr := map[string]uint64{}
	gau := map[string]float64{}
	his := map[string]*HistogramSnapshot{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			ctr[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			gau[g.Name] = g.Value
		}
		for _, h := range s.Histograms {
			m, ok := his[h.Name]
			if !ok {
				m = &HistogramSnapshot{Name: h.Name}
				his[h.Name] = m
			}
			m.Count += h.Count
			m.SumSeconds += h.SumSeconds
			for _, b := range h.Buckets {
				found := false
				for i := range m.Buckets {
					if m.Buckets[i].UpperSeconds == b.UpperSeconds {
						m.Buckets[i].Count += b.Count
						found = true
						break
					}
				}
				if !found {
					m.Buckets = append(m.Buckets, b)
				}
			}
		}
	}
	var out Snapshot
	for n, v := range ctr {
		out.Counters = append(out.Counters, CounterSnapshot{Name: n, Value: v})
	}
	for n, v := range gau {
		out.Gauges = append(out.Gauges, GaugeSnapshot{Name: n, Value: v})
	}
	for _, h := range his {
		sort.Slice(h.Buckets, func(a, b int) bool { return h.Buckets[a].UpperSeconds < h.Buckets[b].UpperSeconds })
		out.Histograms = append(out.Histograms, *h)
	}
	sort.Slice(out.Counters, func(a, b int) bool { return out.Counters[a].Name < out.Counters[b].Name })
	sort.Slice(out.Gauges, func(a, b int) bool { return out.Gauges[a].Name < out.Gauges[b].Name })
	sort.Slice(out.Histograms, func(a, b int) bool { return out.Histograms[a].Name < out.Histograms[b].Name })
	return out
}

// splitName separates `base{labels}` into base and the label block
// (including braces); names without labels return an empty block.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// joinLabels splices an extra label into an existing (possibly empty)
// label block.
func joinLabels(block, extra string) string {
	if block == "" {
		return "{" + extra + "}"
	}
	return block[:len(block)-1] + "," + extra + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (v0.0.4). Histogram buckets are cumulative, with a
// final +Inf bucket, as the format requires.
func (s Snapshot) WritePrometheus(w io.Writer) {
	for _, c := range s.Counters {
		base, labels := splitName(c.Name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", base, base, labels, c.Value)
	}
	for _, g := range s.Gauges {
		base, labels := splitName(g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %g\n", base, base, labels, g.Value)
	}
	seenType := map[string]bool{}
	for _, h := range s.Histograms {
		base, labels := splitName(h.Name)
		if !seenType[base] {
			fmt.Fprintf(w, "# TYPE %s histogram\n", base)
			seenType[base] = true
		}
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket%s %d\n", base, joinLabels(labels, fmt.Sprintf("le=%q", fmt.Sprintf("%g", b.UpperSeconds))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", base, joinLabels(labels, `le="+Inf"`), h.Count)
		fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, h.SumSeconds)
		fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count)
	}
}

// PortCallBase is the base metric name of every interceptor histogram.
const PortCallBase = "port_call_seconds"

// labelEscaper escapes a Prometheus label value per the text
// exposition format: backslash, double quote, and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue escapes s for use inside a quoted Prometheus label
// value. The common no-escape case returns s unchanged, allocation-
// free.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	return labelEscaper.Replace(s)
}

// PortCallName builds the interceptor histogram name for one
// (instance, port, method) wire crossing. Label values are escaped,
// so foreign component names with quotes or backslashes cannot break
// the exposition format.
func PortCallName(instance, port, method string) string {
	return PortCallBase + `{instance="` + EscapeLabelValue(instance) +
		`",port="` + EscapeLabelValue(port) +
		`",method="` + EscapeLabelValue(method) + `"}`
}

// WriteCallTable renders the interceptor's port-call histograms as a
// human-readable table sorted by descending total time — the `-obs`
// summary and the direct re-measurement of the paper's Table 4
// component-call overhead.
func (s Snapshot) WriteCallTable(w io.Writer) {
	type row struct {
		labels string
		h      HistogramSnapshot
	}
	var rows []row
	for _, h := range s.Histograms {
		base, labels := splitName(h.Name)
		if base != PortCallBase {
			continue
		}
		rows = append(rows, row{labels: strings.Trim(labels, "{}"), h: h})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].h.SumSeconds != rows[b].h.SumSeconds {
			return rows[a].h.SumSeconds > rows[b].h.SumSeconds
		}
		return rows[a].labels < rows[b].labels
	})
	fmt.Fprintf(w, "%-64s %10s %12s %14s %12s\n", "port call", "calls", "total (s)", "mean (s)", "p99 (<=s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-64s %10d %12.6f %14.3e %12.3e\n",
			r.labels, r.h.Count, r.h.SumSeconds, r.h.Mean(), r.h.Quantile(0.99))
	}
}
