package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer emits the Chrome trace-event JSON format (the "JSON Array
// Format"), loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// Two process rows exist per run:
//
//   - pid = rank: wall-clock spans. tid 0 is the rank's driver
//     goroutine (SAMR phases nest there); tids 1..W are exec-pool
//     worker-chunk tracks.
//   - pid = VirtualPid: the simulated cluster. tid = world rank is that
//     rank's virtual clock; message-flight slices live there, and flow
//     events ("s"/"f") tie every halo-exchange post to its completion
//     across rank tracks.
//
// Wall and virtual rows use a shared microsecond axis (wall spans since
// the group origin; virtual events at virtual-clock time), so the two
// never share a track but both render on one timeline.

// VirtualPid is the pid of the simulated-cluster process row.
const VirtualPid = 9999

// traceShards bounds tracer lock contention: events are appended under
// a per-shard mutex chosen by track id.
const traceShards = 8

// Event is one trace event, pre-serialization.
type Event struct {
	Ph   byte   // 'X' complete, 's'/'f' flow
	Cat  string // category ("samr", "exec", "halo", "rkc", ...)
	Name string
	Pid  int // -1 means "this tracer's rank pid"
	Tid  int
	Ts   float64 // microseconds
	Dur  float64 // microseconds, 'X' only
	ID   uint64  // flow binding, 's'/'f' only
}

type traceShard struct {
	mu  sync.Mutex
	evs []Event
}

// Tracer is one rank's event sink. The zero value is not usable;
// tracers are created by NewGroup. A nil *Tracer is safe to call —
// every method is a no-op — so instrumentation sites need no guards
// beyond the pointer they already hold.
type Tracer struct {
	g    *Group
	rank int
	sh   [traceShards]traceShard

	// Spill streaming (see StreamTo): when spillCap > 0, any shard
	// reaching that many buffered events is flushed to the spill file as
	// JSON lines, bounding in-memory growth on long runs.
	spillCap atomic.Int64
	spill    struct {
		mu   sync.Mutex
		path string
		f    *os.File
		enc  *json.Encoder
		err  error
	}
}

// Rank returns the rank this tracer records for.
func (t *Tracer) Rank() int { return t.rank }

// nowUs returns wall microseconds since the group origin.
func (t *Tracer) nowUs() float64 {
	return float64(time.Since(t.g.origin).Nanoseconds()) / 1e3
}

// Emit appends one event. Safe for concurrent use. With spill streaming
// enabled, a shard that reaches the cap hands its buffer to the spill
// file outside the shard lock, so concurrent emitters on other tracks
// never stall behind the disk.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if ev.Pid < 0 {
		ev.Pid = t.rank
	}
	s := &t.sh[uint(ev.Tid)%traceShards]
	var flush []Event
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	if limit := t.spillCap.Load(); limit > 0 && int64(len(s.evs)) >= limit {
		flush = s.evs
		s.evs = nil
	}
	s.mu.Unlock()
	if flush != nil {
		t.spillOut(flush)
	}
}

// spillOut appends a batch of events to the spill file.
func (t *Tracer) spillOut(evs []Event) {
	t.spill.mu.Lock()
	defer t.spill.mu.Unlock()
	if t.spill.f == nil {
		return
	}
	for i := range evs {
		if err := t.spill.enc.Encode(&evs[i]); err != nil {
			if t.spill.err == nil {
				t.spill.err = err
			}
			return
		}
	}
}

// streamTo (re)opens the tracer's spill file, truncating any previous
// segment — a restore that reuses a trace directory starts clean.
func (t *Tracer) streamTo(path string, shardCap int) error {
	if t == nil {
		return nil
	}
	if shardCap < 1 {
		shardCap = 1
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.spill.mu.Lock()
	if t.spill.f != nil {
		t.spill.f.Close()
	}
	t.spill.path = path
	t.spill.f = f
	t.spill.enc = json.NewEncoder(f)
	t.spill.err = nil
	t.spill.mu.Unlock()
	t.spillCap.Store(int64(shardCap))
	return nil
}

// spillEvents reads back everything flushed to the spill file so far.
func (t *Tracer) spillEvents() ([]Event, error) {
	t.spill.mu.Lock()
	defer t.spill.mu.Unlock()
	if t.spill.f == nil {
		return nil, t.spill.err
	}
	data, err := os.ReadFile(t.spill.path)
	if err != nil {
		return nil, err
	}
	var out []Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
	return out, t.spill.err
}

var nop = func() {}

// Span opens a wall-clock span on the driver track (tid 0) and returns
// the closure that closes it. Nil-safe: a nil tracer returns a shared
// no-op closure without allocating.
func (t *Tracer) Span(cat, name string) func() {
	return t.SpanTid(0, cat, name)
}

// SpanTid opens a wall-clock span on an explicit track.
func (t *Tracer) SpanTid(tid int, cat, name string) func() {
	if t == nil {
		return nop
	}
	start := t.nowUs()
	return func() {
		t.Emit(Event{Ph: 'X', Cat: cat, Name: name, Pid: -1, Tid: tid, Ts: start, Dur: t.nowUs() - start})
	}
}

// NextFlowID allocates a group-unique flow id; the sender stamps it on
// the message and the receiver's completion closes the arrow.
func (t *Tracer) NextFlowID() uint64 {
	if t == nil {
		return 0
	}
	return t.g.flowID.Add(1)
}

// VirtualSend records a message entering flight on the virtual-cluster
// row: a flight slice [postSec, postSec+costSec] on the sender's clock
// track plus the flow start that the receiver's VirtualRecv closes.
// cat classifies the traffic ("halo", "coll", "p2p").
func (t *Tracer) VirtualSend(id uint64, cat string, srcRank, dstRank int, postSec, costSec float64, words int) {
	if t == nil {
		return
	}
	ts := postSec * 1e6
	name := fmt.Sprintf("msg->r%d (%dw)", dstRank, words)
	t.Emit(Event{Ph: 'X', Cat: cat, Name: name, Pid: VirtualPid, Tid: srcRank, Ts: ts, Dur: costSec * 1e6})
	t.Emit(Event{Ph: 's', Cat: cat, Name: "flight", Pid: VirtualPid, Tid: srcRank, Ts: ts, ID: id})
}

// VirtualRecv records a message completion on the receiver's virtual
// clock track and closes the flow arrow opened by VirtualSend.
func (t *Tracer) VirtualRecv(id uint64, cat string, rank int, atSec float64, words int) {
	if t == nil {
		return
	}
	ts := atSec * 1e6
	name := fmt.Sprintf("recv (%dw)", words)
	t.Emit(Event{Ph: 'X', Cat: cat, Name: name, Pid: VirtualPid, Tid: rank, Ts: ts, Dur: 1})
	t.Emit(Event{Ph: 'f', Cat: cat, Name: "flight", Pid: VirtualPid, Tid: rank, Ts: ts, ID: id})
}

// events returns a copy of everything recorded so far: the spilled
// prefix (when streaming) followed by the in-memory residue.
func (t *Tracer) events() []Event {
	out, _ := t.spillEvents()
	for i := range t.sh {
		s := &t.sh[i]
		s.mu.Lock()
		out = append(out, s.evs...)
		s.mu.Unlock()
	}
	return out
}

// SpillError reports the first spill-write failure, if any.
func (t *Tracer) SpillError() error {
	if t == nil {
		return nil
	}
	t.spill.mu.Lock()
	defer t.spill.mu.Unlock()
	return t.spill.err
}

// Obs is one rank's observability session: the shared-origin tracer
// plus a private metrics registry. Components reach it through
// cca.Services.Observability(); a nil *Obs means "disabled" and every
// hot path must check exactly that one pointer.
type Obs struct {
	rank int
	reg  *Registry
	tr   *Tracer

	// callPol is the port-call sampling policy (nil records all) and
	// dropped caches its discard counter; see portcall.go.
	callPol atomic.Pointer[portCallPolicy]
	dropped atomic.Pointer[Counter]
}

// Rank returns the session's rank.
func (o *Obs) Rank() int { return o.rank }

// Metrics returns the rank's registry (nil on a nil session).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the rank's tracer (nil on a nil session, and nil
// tracers are themselves no-ops).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// Span forwards to the tracer's driver-track span; nil-safe.
func (o *Obs) Span(cat, name string) func() {
	if o == nil {
		return nop
	}
	return o.tr.Span(cat, name)
}

// PortHistogram returns the interceptor histogram of one (instance,
// port, method) triple.
func (o *Obs) PortHistogram(instance, port, method string) *Histogram {
	return o.reg.Histogram(PortCallName(instance, port, method))
}

// Group is one job's observability: a session per rank, one time
// origin, one flow-id space. Rank 0's WriteTrace merges every rank's
// events into one Perfetto-loadable file (the in-process analogue of
// the per-rank trace files an MPI job would gather to rank 0).
type Group struct {
	origin time.Time
	ranks  []*Obs
	flowID atomic.Uint64
}

// NewGroup creates sessions for n ranks sharing one origin.
func NewGroup(n int) *Group {
	g := &Group{origin: time.Now()}
	for r := 0; r < n; r++ {
		tr := &Tracer{g: g, rank: r}
		g.ranks = append(g.ranks, &Obs{rank: r, reg: NewRegistry(), tr: tr})
	}
	return g
}

// Size returns the rank count.
func (g *Group) Size() int { return len(g.ranks) }

// Rank returns rank r's session.
func (g *Group) Rank(r int) *Obs { return g.ranks[r] }

// StreamTo enables incremental trace streaming: each rank spills any
// event shard that reaches shardCap buffered events to
// dir/trace-spill-r<rank>.jsonl, bounding in-memory trace growth on
// long runs. Existing spill segments are truncated, so a restarted or
// checkpoint-restored run reopens its trace cleanly. WriteTrace merges
// the spilled prefix with the in-memory residue transparently.
func (g *Group) StreamTo(dir string, shardCap int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, o := range g.ranks {
		path := filepath.Join(dir, fmt.Sprintf("trace-spill-r%d.jsonl", o.tr.rank))
		if err := o.tr.streamTo(path, shardCap); err != nil {
			return err
		}
	}
	return nil
}

// MergedSnapshot merges every rank's metrics registry.
func (g *Group) MergedSnapshot() Snapshot {
	snaps := make([]Snapshot, len(g.ranks))
	for i, o := range g.ranks {
		snaps[i] = o.reg.Snapshot()
	}
	return Merge(snaps...)
}

// EventCounts returns the number of recorded trace events per category,
// summed over ranks — the deterministic face of a trace (timestamps
// are host wall or virtual clock; counts are fixed by the algorithm).
func (g *Group) EventCounts() map[string]int {
	out := map[string]int{}
	for _, o := range g.ranks {
		for _, ev := range o.tr.events() {
			out[o.tr.catKey(ev)]++
		}
	}
	return out
}

// catKey labels an event for counting: category, with flow phases
// split out so "s"/"f" balance is visible.
func (t *Tracer) catKey(ev Event) string {
	switch ev.Ph {
	case 's':
		return ev.Cat + ".flow.s"
	case 'f':
		return ev.Cat + ".flow.f"
	}
	return ev.Cat
}

// jsonEvent is the wire form of one trace event.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   *uint64        `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace merges all ranks' events into one Chrome trace-event JSON
// document, with process/thread metadata naming every track.
func (g *Group) WriteTrace(w io.Writer) error {
	var evs []Event
	for _, o := range g.ranks {
		if err := o.tr.SpillError(); err != nil {
			return fmt.Errorf("obs: rank %d trace spill failed: %w", o.tr.rank, err)
		}
		evs = append(evs, o.tr.events()...)
	}
	// Stable order: by (pid, tid, ts, phase) so regenerating an
	// identical run yields an identical file modulo timestamps.
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Pid != evs[b].Pid {
			return evs[a].Pid < evs[b].Pid
		}
		if evs[a].Tid != evs[b].Tid {
			return evs[a].Tid < evs[b].Tid
		}
		return evs[a].Ts < evs[b].Ts
	})

	type track struct{ pid, tid int }
	tracks := map[track]bool{}
	pids := map[int]bool{}
	for _, ev := range evs {
		tracks[track{ev.Pid, ev.Tid}] = true
		pids[ev.Pid] = true
	}

	var out []jsonEvent
	meta := func(pid, tid int, name, label string) {
		out = append(out, jsonEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}})
	}
	var pidList []int
	for pid := range pids {
		pidList = append(pidList, pid)
	}
	sort.Ints(pidList)
	for _, pid := range pidList {
		if pid == VirtualPid {
			meta(pid, 0, "process_name", "virtual cluster (MPI clock)")
		} else {
			meta(pid, 0, "process_name", fmt.Sprintf("rank %d", pid))
		}
	}
	var trackList []track
	for tk := range tracks {
		trackList = append(trackList, tk)
	}
	sort.Slice(trackList, func(a, b int) bool {
		if trackList[a].pid != trackList[b].pid {
			return trackList[a].pid < trackList[b].pid
		}
		return trackList[a].tid < trackList[b].tid
	})
	for _, tk := range trackList {
		switch {
		case tk.pid == VirtualPid:
			meta(tk.pid, tk.tid, "thread_name", fmt.Sprintf("rank %d clock", tk.tid))
		case tk.tid == 0:
			meta(tk.pid, tk.tid, "thread_name", "driver")
		default:
			meta(tk.pid, tk.tid, "thread_name", fmt.Sprintf("worker %d", tk.tid-1))
		}
	}

	for _, ev := range evs {
		je := jsonEvent{Name: ev.Name, Cat: ev.Cat, Ph: string(ev.Ph), Ts: ev.Ts, Pid: ev.Pid, Tid: ev.Tid}
		switch ev.Ph {
		case 'X':
			d := ev.Dur
			if d <= 0 {
				d = 0.1 // zero-width slices are dropped by viewers
			}
			je.Dur = &d
		case 's':
			id := ev.ID
			je.ID = &id
		case 'f':
			id := ev.ID
			je.ID = &id
			je.Bp = "e" // bind to the enclosing slice at the arrow head
		}
		out = append(out, je)
	}
	doc := map[string]any{"traceEvents": out, "displayTimeUnit": "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
