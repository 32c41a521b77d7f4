// Package telemetry is the live serving plane over the passive obs
// layer: while internal/obs records (metrics registries, trace shards)
// and only writes files at exit, telemetry answers questions about a
// run *while it is running* and preserves the recent past when it
// dies.
//
// Three cooperating pieces:
//
//   - A Hub with one Rank handle per SPMD rank. Drivers, the
//     checkpoint component, and the MPI substrate emit structured
//     Events through their rank handle; each event is stamped with a
//     global sequence number, the rank, the step, the virtual clock,
//     and the AMR hierarchy generation so multi-rank timelines
//     correlate.
//   - An optional JSONL event log (Hub.LogTo): every structured event
//     appended to disk as it happens.
//   - A crash flight recorder: once a flight directory is set, the hub
//     keeps the most recent structured events in one fixed-size buffer.
//     Hub.DumpAll writes it to a post-mortem file, beside the obs
//     group's merged trace when one is attached (spans live only in
//     the tracer); callers invoke it on panic, on ErrRankFailed, and on
//     every ckpt.Supervise retry (the Hub itself implements
//     ckpt.RetryNotifier).
//
// The HTTP server over the Hub lives in server.go. The whole package
// is stdlib-only and nil-safe: a nil *Rank or nil *Hub accepts every
// call as a no-op, so instrumented code paths need no guards and a
// detached run (no -serve, no fault supervision) pays nothing.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ccahydro/internal/obs"
)

// Event kinds emitted by the instrumented subsystems. Kinds are flat
// strings (not an enum type) so foreign components can add their own
// without touching this package.
const (
	EvStep            = "step"             // driver began a macro step
	EvRegrid          = "regrid"           // SAMR hierarchy changed
	EvCkptSave        = "ckpt.save"        // checkpoint shard enqueued (detail: full|delta)
	EvCkptRestore     = "ckpt.restore"     // restore completed (detail: manifest)
	EvCkptGC          = "ckpt.gc"          // retention GC pass completed
	EvFaultInject     = "fault.inject"     // fault armed on this rank fired
	EvRankFailed      = "rank.failed"      // rank goroutine died with ErrRankFailed
	EvSupervisorRetry = "supervisor.retry" // ckpt.Supervise restarting after rank failure
	EvPhase           = "phase"            // run phase transition (detail: phase name)
)

// Event is one structured telemetry record. Seq is a hub-global
// monotone sequence number, assigned in the order events reach the
// hub, so sorting by Seq reconstructs the interleaved timeline.
type Event struct {
	Seq    uint64  `json:"seq"`
	Rank   int     `json:"rank"` // -1 for hub-level (supervisor) events
	Step   int     `json:"step"`
	VT     float64 `json:"vt"` // virtual clock seconds (0 when no comm attached)
	Gen    int     `json:"gen"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// SeriesSource is the incremental view of a time-series store that the
// /series endpoint streams from. *components.StatisticsComponent
// implements it; the interface lives here so telemetry stays a leaf
// package.
type SeriesSource interface {
	// Keys returns the sorted series names.
	Keys() []string
	// GetSince returns a copy of series key from index from onward
	// (nil when nothing new).
	GetSince(key string, from int) []float64
	// Version is a counter that increases after every append, so a
	// poller can skip the scan entirely when nothing changed.
	Version() uint64
}

// RankHealth is one rank's row in the /healthz report.
type RankHealth struct {
	Rank        int     `json:"rank"`
	Alive       bool    `json:"alive"`
	Step        int     `json:"step"`
	VirtualTime float64 `json:"virtualTime"`
	Generation  int     `json:"generation"`
}

// Health is the /healthz document.
type Health struct {
	Phase              string       `json:"phase"`
	Attempt            int          `json:"attempt"`
	LastCheckpointStep int          `json:"lastCheckpointStep"` // -1 before the first save
	Events             uint64       `json:"events"`
	Ranks              []RankHealth `json:"ranks"`
}

// flightDepth is the flight recorder's history per rank: the hub's
// event buffer holds the last flightDepth × ranks structured events.
const flightDepth = 1024

// Hub is the per-run telemetry root: rank handles, phase, the event
// log, and the flight recorder. All methods are safe on a nil
// receiver and safe for concurrent use.
type Hub struct {
	group *obs.Group
	ranks []*Rank

	phase    atomic.Value // string
	attempt  atomic.Int64
	lastCkpt atomic.Int64
	version  atomic.Uint64 // bumps on every structured event

	// mu guards the sequence counter, the counts, the JSONL log and the
	// flight buffer, so all four see every event in the same order.
	mu     sync.Mutex
	seq    uint64
	counts map[string]uint64
	logF   *os.File
	logW   *bufio.Writer
	// flight is the recorder's ring of the most recent events, nil until
	// SetFlightDir; flightN counts the events ever put into it.
	flight    []Event
	flightN   uint64
	flightDir string
	dumpSeq   int

	watchMu  sync.Mutex
	watchers []chan struct{}
	nwatch   atomic.Int64
}

// NewHub builds a hub for an n-rank run. group may be nil when the
// obs layer is detached; /metrics and /trace then answer 503.
func NewHub(n int, group *obs.Group) *Hub {
	h := &Hub{
		group:  group,
		ranks:  make([]*Rank, n),
		counts: make(map[string]uint64),
	}
	h.phase.Store("idle")
	h.lastCkpt.Store(-1)
	for r := range h.ranks {
		rk := &Rank{hub: h, rank: r}
		rk.alive.Store(true)
		h.ranks[r] = rk
	}
	return h
}

// Group returns the obs group backing /metrics and /trace (may be nil).
func (h *Hub) Group() *obs.Group {
	if h == nil {
		return nil
	}
	return h.group
}

// NumRanks returns the number of rank handles.
func (h *Hub) NumRanks() int {
	if h == nil {
		return 0
	}
	return len(h.ranks)
}

// Rank returns rank r's handle (nil when out of range or h is nil, so
// the result is always safe to use).
func (h *Hub) Rank(r int) *Rank {
	if h == nil || r < 0 || r >= len(h.ranks) {
		return nil
	}
	return h.ranks[r]
}

// SetPhase records a run phase transition ("running", "done",
// "failed", ...) and emits a phase event.
func (h *Hub) SetPhase(phase string) {
	if h == nil {
		return
	}
	h.phase.Store(phase)
	h.Emit(EvPhase, phase)
}

// Phase returns the current run phase.
func (h *Hub) Phase() string {
	if h == nil {
		return ""
	}
	return h.phase.Load().(string)
}

// Finished reports whether the run reached a terminal phase.
func (h *Hub) Finished() bool {
	p := h.Phase()
	return p == "done" || p == "failed"
}

// StartAttempt marks the beginning of supervised attempt n (1-based):
// every rank is considered alive again until it fails.
func (h *Hub) StartAttempt(n int) {
	if h == nil {
		return
	}
	h.attempt.Store(int64(n))
	for _, rk := range h.ranks {
		rk.alive.Store(true)
	}
	h.Emit(EvPhase, fmt.Sprintf("attempt %d", n))
}

// Emit records a hub-level event (rank -1). Rank-attributed events go
// through Rank.Emit instead.
func (h *Hub) Emit(kind, detail string) {
	if h == nil {
		return
	}
	h.put(Event{Rank: -1, Step: -1, Kind: kind, Detail: detail})
}

// put sequences an already-stamped event and fans it out to the
// health rollup, the counts table, the flight buffer, the JSONL log,
// and any watchers.
func (h *Hub) put(ev Event) {
	switch ev.Kind {
	case EvCkptSave:
		h.lastCkpt.Store(int64(ev.Step))
	case EvRankFailed:
		if rk := h.Rank(ev.Rank); rk != nil {
			rk.alive.Store(false)
		}
	}

	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	h.counts[ev.Kind]++
	if n := uint64(len(h.flight)); n > 0 {
		h.flight[h.flightN%n] = ev
		h.flightN++
	}
	if h.logW != nil {
		if b, err := json.Marshal(ev); err == nil {
			h.logW.Write(b)
			h.logW.WriteByte('\n')
		}
	}
	h.mu.Unlock()

	h.version.Add(1)
	if h.nwatch.Load() > 0 {
		h.watchMu.Lock()
		for _, c := range h.watchers {
			select {
			case c <- struct{}{}:
			default:
			}
		}
		h.watchMu.Unlock()
	}
}

// EventCounts returns a copy of the per-kind structured-event totals.
func (h *Hub) EventCounts() map[string]uint64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]uint64, len(h.counts))
	for k, v := range h.counts {
		out[k] = v
	}
	return out
}

// Version returns a counter that bumps on every structured event;
// pollers use it for cheap change detection.
func (h *Hub) Version() uint64 {
	if h == nil {
		return 0
	}
	return h.version.Load()
}

// Watch registers a change-notification channel (capacity 1,
// non-blocking sends) fired on every structured event. The returned
// cancel must be called to unregister.
func (h *Hub) Watch() (<-chan struct{}, func()) {
	if h == nil {
		c := make(chan struct{})
		return c, func() {}
	}
	c := make(chan struct{}, 1)
	h.watchMu.Lock()
	h.watchers = append(h.watchers, c)
	h.watchMu.Unlock()
	h.nwatch.Add(1)
	return c, func() {
		h.watchMu.Lock()
		for i, w := range h.watchers {
			if w == c {
				h.watchers = append(h.watchers[:i], h.watchers[i+1:]...)
				break
			}
		}
		h.watchMu.Unlock()
		h.nwatch.Add(-1)
	}
}

// Health assembles the /healthz document.
func (h *Hub) Health() Health {
	if h == nil {
		return Health{Phase: "detached", LastCheckpointStep: -1}
	}
	doc := Health{
		Phase:              h.Phase(),
		Attempt:            int(h.attempt.Load()),
		LastCheckpointStep: int(h.lastCkpt.Load()),
		Ranks:              make([]RankHealth, len(h.ranks)),
	}
	h.mu.Lock()
	doc.Events = h.seq
	h.mu.Unlock()
	for r, rk := range h.ranks {
		vt, gen := rk.stamp()
		doc.Ranks[r] = RankHealth{
			Rank:        r,
			Alive:       rk.alive.Load(),
			Step:        int(rk.step.Load()),
			VirtualTime: vt,
			Generation:  gen,
		}
	}
	return doc
}

// seriesVersion sums the registered series sources' generation
// counters; /series skips its scan while this is unchanged.
func (h *Hub) seriesVersion() uint64 {
	var v uint64
	for _, rk := range h.ranks {
		if src := rk.Series(); src != nil {
			v += src.Version()
		}
	}
	return v
}

// LogTo opens (truncating) a JSONL event log; every structured event
// is appended as one JSON object per line. Call CloseLog to flush.
func (h *Hub) LogTo(path string) error {
	if h == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.logF != nil {
		h.logW.Flush()
		h.logF.Close()
	}
	h.logF, h.logW = f, bufio.NewWriter(f)
	h.mu.Unlock()
	return nil
}

// CloseLog flushes and closes the JSONL event log, if open.
func (h *Hub) CloseLog() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.logF == nil {
		return nil
	}
	err := h.logW.Flush()
	if cerr := h.logF.Close(); err == nil {
		err = cerr
	}
	h.logF, h.logW = nil, nil
	return err
}

// SetFlightDir names the directory flight-recorder dumps land in and
// allocates the event buffer they are written from, since a dump is
// its only reader: a hub without a flight directory keeps no history,
// and its DumpAll is a no-op.
func (h *Hub) SetFlightDir(dir string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.flightDir = dir
	if dir != "" && h.flight == nil {
		h.flight = make([]Event, flightDepth*len(h.ranks))
	}
	h.mu.Unlock()
}

// flightHeader is the first line of a flight-recorder dump.
type flightHeader struct {
	Reason  string `json:"reason"`
	Cause   string `json:"cause,omitempty"`
	Attempt int    `json:"attempt"`
	Events  int    `json:"events"`
}

// DumpAll writes the flight buffer to one JSONL post-mortem file
// (flight-NNN-<reason>.jsonl: a {"flight":...} header line, then the
// events oldest first) and, when the hub has an obs group, the group's
// merged Chrome trace beside it (flight-NNN-<reason>.trace.json), which
// holds the spans leading up to the failure. Returns the JSONL path, or
// "" when no flight directory is configured. Safe while ranks still
// emit: the buffer is copied under the hub lock.
func (h *Hub) DumpAll(reason string, cause error) (string, error) {
	if h == nil {
		return "", nil
	}
	h.mu.Lock()
	dir := h.flightDir
	h.dumpSeq++
	n := h.dumpSeq
	size := uint64(len(h.flight))
	evs := make([]Event, 0, min(h.flightN, size))
	for i := h.flightN - uint64(cap(evs)); i < h.flightN; i++ {
		evs = append(evs, h.flight[i%size])
	}
	h.mu.Unlock()
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	base := filepath.Join(dir, fmt.Sprintf("flight-%03d-%s", n, reason))
	hdr := flightHeader{Reason: reason, Attempt: int(h.attempt.Load()), Events: len(evs)}
	if cause != nil {
		hdr.Cause = cause.Error()
	}
	err := writeFile(base+".jsonl", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(struct {
			Flight flightHeader `json:"flight"`
		}{hdr}); err != nil {
			return err
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if h.group != nil {
		if err := writeFile(base+".trace.json", h.group.WriteTrace); err != nil {
			return "", err
		}
	}
	return base + ".jsonl", nil
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OnRankFailure implements ckpt.RetryNotifier: it records the
// supervisor retry and dumps the flight recorder so every injected-
// fault recovery leaves a post-mortem artifact. The retry event is
// emitted first so the dump contains it as its final entry.
func (h *Hub) OnRankFailure(attempt int, err error) {
	if h == nil {
		return
	}
	h.Emit(EvSupervisorRetry, fmt.Sprintf("attempt %d failed: %v", attempt, err))
	// Best effort: a dump failure must never mask the run error.
	h.DumpAll(fmt.Sprintf("retry%d", attempt), err)
}

// Rank is one SPMD rank's telemetry handle. All methods are safe on a
// nil receiver, so instrumented code calls them unguarded; a detached
// framework hands out nil handles and pays nothing.
type Rank struct {
	hub  *Hub
	rank int

	step  atomic.Int64
	alive atomic.Bool

	mu     sync.Mutex
	clock  func() float64
	gen    func() int
	series SeriesSource

	// Last sampled clock/generation, refreshed by stamp. The substrate
	// sink reads these instead of calling the samplers: it can fire while
	// the emitter holds component locks (a fault tripped by a send during
	// a remap), and the generation sampler reaches back into the mesh
	// component — calling it there would self-deadlock.
	lastVT  atomic.Uint64 // math.Float64bits
	lastGen atomic.Int64
}

// SetClock installs the virtual-clock sampler (typically
// mpi.Comm.VirtualTime). Install before the run starts.
func (rk *Rank) SetClock(clock func() float64) {
	if rk == nil {
		return
	}
	rk.mu.Lock()
	rk.clock = clock
	rk.mu.Unlock()
}

// SetGeneration installs the AMR hierarchy-generation sampler.
func (rk *Rank) SetGeneration(gen func() int) {
	if rk == nil {
		return
	}
	rk.mu.Lock()
	rk.gen = gen
	rk.mu.Unlock()
}

// SetSeries registers the rank's time-series source for /series.
func (rk *Rank) SetSeries(src SeriesSource) {
	if rk == nil {
		return
	}
	rk.mu.Lock()
	rk.series = src
	rk.mu.Unlock()
}

// Series returns the registered series source (nil when detached).
func (rk *Rank) Series() SeriesSource {
	if rk == nil {
		return nil
	}
	rk.mu.Lock()
	defer rk.mu.Unlock()
	return rk.series
}

// stamp samples the virtual clock and hierarchy generation and caches
// the result for the substrate sink. The samplers are invoked outside
// rk.mu (they may block on component or communicator state) — only the
// function values are read under the lock.
func (rk *Rank) stamp() (vt float64, gen int) {
	rk.mu.Lock()
	clock, genFn := rk.clock, rk.gen
	rk.mu.Unlock()
	if clock != nil {
		vt = clock()
	}
	if genFn != nil {
		gen = genFn()
	}
	rk.lastVT.Store(math.Float64bits(vt))
	rk.lastGen.Store(int64(gen))
	return vt, gen
}

// cachedStamp returns the last sampled clock/generation without calling
// the samplers — safe from any context, including under component locks.
func (rk *Rank) cachedStamp() (vt float64, gen int) {
	return math.Float64frombits(rk.lastVT.Load()), int(rk.lastGen.Load())
}

// NoteStep records the rank entering macro step step: it updates the
// health rollup and emits a step event.
func (rk *Rank) NoteStep(step int) {
	if rk == nil {
		return
	}
	rk.step.Store(int64(step))
	rk.Emit(EvStep, step, "")
}

// Emit records one structured event attributed to this rank. A
// negative step means "the last step NoteStep saw" — emitters that
// don't track the step themselves (the MPI substrate, the checkpoint
// writer) pass -1.
func (rk *Rank) Emit(kind string, step int, detail string) {
	if rk == nil {
		return
	}
	if step < 0 {
		step = int(rk.step.Load())
	}
	vt, gen := rk.stamp()
	rk.hub.put(Event{Rank: rk.rank, Step: step, VT: vt, Gen: gen, Kind: kind, Detail: detail})
}

// Substrate returns the sink the MPI layer should emit through
// (mpi.Comm.SetEvents). Substrate events — fault injections, rank
// deaths — can fire deep inside sends while the caller holds component
// locks, so this sink stamps from the cached clock/generation instead
// of invoking the samplers. A nil receiver yields a usable no-op sink.
func (rk *Rank) Substrate() SubstrateSink {
	return SubstrateSink{rk: rk}
}

// SubstrateSink is the lock-safe emitter handed to the MPI substrate.
type SubstrateSink struct {
	rk *Rank
}

// Emit implements mpi.EventSink.
func (s SubstrateSink) Emit(kind string, step int, detail string) {
	rk := s.rk
	if rk == nil {
		return
	}
	if step < 0 {
		step = int(rk.step.Load())
	}
	vt, gen := rk.cachedStamp()
	rk.hub.put(Event{Rank: rk.rank, Step: step, VT: vt, Gen: gen, Kind: kind, Detail: detail})
}
