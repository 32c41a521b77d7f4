package components

import (
	"sort"
	"sync"
	"sync/atomic"

	"ccahydro/internal/cca"
)

// StatisticsComponent collects named scalar time series — the paper's
// StatisticsComponent, reused by the flame and shock assemblies for
// diagnostics output.
//
// Concurrency and aliasing contract (StatsPort): all methods are safe
// to call concurrently. Get and GetSince return fresh copies, never a
// view of the live series, so a reader holding a snapshot cannot race
// a concurrent Record growing the backing array — and a caller
// mutating its copy cannot corrupt the recorded history. Keys returns
// the series names sorted, so exporters iterate deterministically
// regardless of map order or recording interleaving.
//
// For live streaming, the component also implements
// telemetry.SeriesSource: Version is a generation counter bumped after
// every Record, so a poller skips its scan when nothing changed, and
// GetSince copies only the tail it has not yet seen instead of the
// full history every poll.
type StatisticsComponent struct {
	mu      sync.Mutex
	series  map[string][]float64
	version atomic.Uint64
}

var statisticsSpec = &Spec{
	Class: "StatisticsComponent", New: func() cca.Component { return &StatisticsComponent{} },
	Provides: []PortDecl{prov("stats", StatsPortType)},
}

// SetServices implements cca.Component.
func (sc *StatisticsComponent) SetServices(svc cca.Services) error {
	sc.series = make(map[string][]float64)
	return statisticsSpec.register(svc, sc)
}

// Record implements StatsPort.
func (sc *StatisticsComponent) Record(key string, value float64) {
	sc.mu.Lock()
	sc.series[key] = append(sc.series[key], value)
	sc.mu.Unlock()
	// Bumped after the sample is visible: a reader woken by the new
	// version is guaranteed to see the sample under the lock.
	sc.version.Add(1)
}

// Get implements StatsPort.
func (sc *StatisticsComponent) Get(key string) []float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]float64(nil), sc.series[key]...)
}

// GetSince returns a copy of series key from sample index from onward;
// nil when nothing new (or the key is unknown). The incremental form
// of Get for streaming consumers.
func (sc *StatisticsComponent) GetSince(key string, from int) []float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s := sc.series[key]
	if from < 0 {
		from = 0
	}
	if from >= len(s) {
		return nil
	}
	return append([]float64(nil), s[from:]...)
}

// Version implements telemetry.SeriesSource: a counter that increases
// after every Record.
func (sc *StatisticsComponent) Version() uint64 {
	return sc.version.Load()
}

// Keys implements StatsPort.
func (sc *StatisticsComponent) Keys() []string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]string, 0, len(sc.series))
	for k := range sc.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
