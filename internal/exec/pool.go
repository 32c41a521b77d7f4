// Package exec provides the shared worker pool behind the repository's
// patch-parallel hot loops. The paper's performance story is that
// component boundaries cost nothing while the physics kernels dominate
// runtime; this package is the lever that lets those kernels use every
// core. Block-structured SAMR gets its parallelism from the
// independence of same-level patch updates (each patch's RHS/flux
// evaluation reads its own ghost-padded array and writes its own
// interior), so a level advance decomposes into an embarrassingly
// parallel ForEach over patches — and stiff per-cell chemistry
// decomposes further into a ForEach over cells.
//
// The pool is a persistent-worker epoch engine: workers are spawned
// once and live for the pool's lifetime, advancing through loop epochs
// via a per-pool epoch counter. Publishing an epoch is one atomic store
// of a packed (epoch, chunks) word — there is no per-call goroutine
// spawn, no channel round-trip, and no sync.WaitGroup; completion is a
// single atomic counter the caller spins on (parking on a condvar only
// when the wait is long). Between epochs workers spin briefly and then
// park, so back-to-back ForEach calls — the RKC stage loop shape —
// hand off in nanoseconds while an idle pool costs nothing.
//
// Design constraints, in order:
//
//  1. Determinism. Work item i always runs under the same worker slot
//     w regardless of scheduling, and callers combine any per-slot
//     partial results in slot order, so a parallel run is bit-for-bit
//     identical to a serial run of the same loop. The slot passed to
//     fn is the chunk index, a pure function of (n, chunks) — which
//     goroutine happens to execute a chunk never matters, so the
//     caller and the workers claim chunks freely (an idle machine's
//     caller can drain a whole epoch inline without a context switch).
//  2. Nested safety. A ForEach issued while an epoch is in flight on
//     the same pool — from inside a work item, or from a concurrent
//     goroutine sharing the pool — executes inline on the calling
//     goroutine with the identical chunk→slot mapping. No deadlock by
//     construction, and no second epoch machinery.
//  3. Zero overhead when serial. With width 1 (the default on a
//     single-CPU host, and the pinned configuration for SCMD
//     rank-parallel runs) ForEachChunk degenerates to an inline call
//     with no goroutines, atomics, or allocations.
//  4. Panic transparency. A panic inside a work item is captured with
//     its stack and re-raised in the calling goroutine as *PanicError,
//     so component contracts (drivers panic on wiring bugs) survive
//     parallel execution. Workers are persistent and survive panics.
//
// Steady-state epoch handoff is allocation-free: the job descriptor is
// embedded in the Pool and reused, and the packed state word is the
// only cross-goroutine signal (asserted by TestEpochHandoffZeroAlloc).
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccahydro/internal/obs"
)

// PanicError wraps a panic captured inside a pool task. It is re-raised
// in the goroutine that issued the ForEach.
type PanicError struct {
	Value any    // the original panic value
	Stack string // stack of the panicking worker
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic in parallel task: %v", e.Value)
}

// chunkBits is the width of the chunk-count field in the packed epoch
// state word (epoch<<chunkBits | chunks). Pool width is clamped below
// its capacity, and the epoch counter has 64-chunkBits bits of
// headroom (millennia of epochs at nanosecond handoff).
const chunkBits = 16

// epochJob describes the loop of the currently published epoch. It is
// embedded in the Pool and reused across epochs — the publish order
// (fields first, then the claim word, then the atomic state store)
// plus the completion counter (the next publish cannot happen until
// every claimed chunk has finished) make the reuse race-free: a
// participant reads the fields only after winning a chunk claim, and a
// claim can only be won while its epoch is the live one.
type epochJob struct {
	n  int
	fn body
	// tr, when non-nil, records one span per executed chunk on worker
	// track 1+w (captured at publish so mid-epoch SetTracer calls
	// cannot tear an epoch's events).
	tr *obs.Tracer
}

// body is one loop body: a chunk function or, for ForEach, a
// per-item function the pool calls over the chunk's range itself, so
// ForEach needs no wrapper closure.
type body struct {
	chunk func(w, lo, hi int)
	item  func(w, i int)
}

// run executes the body over [lo, hi) under worker slot w.
func (b body) run(w, lo, hi int) {
	if b.item == nil {
		b.chunk(w, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		b.item(w, i)
	}
}

// chunkBounds returns the half-open item range [lo, hi) of chunk c when
// [0, n) is split into ch contiguous chunks.
func chunkBounds(n, ch, c int) (lo, hi int) {
	return c * n / ch, (c + 1) * n / ch
}

// Pool is a persistent-worker epoch engine. The zero value is not
// usable; construct with NewPool. Pools are safe for concurrent use by
// multiple goroutines (e.g. the in-process SCMD rank cohort shares one
// pool): one caller at a time drives the epoch machinery, any overlap
// falls back to inline execution with the same deterministic mapping.
type Pool struct {
	width int

	// state packs (epoch<<chunkBits | chunks) — the single atomic
	// publish per epoch. Workers key off this word alone; epochs they
	// arrive at too late never touch the (mutable) job fields.
	state atomic.Uint64
	// claim packs (epoch<<chunkBits | chunksClaimed): participants win
	// chunk c by CASing the count from c to c+1 while the epoch half
	// still matches the epoch they observed. The tag makes late claims
	// from a previous epoch fail instead of stealing the new epoch's
	// chunks.
	claim atomic.Uint64
	// done counts finished chunks of the current epoch. Target: chunks.
	done atomic.Int32
	// busy serializes epoch publication. Losers (nested or concurrent
	// callers) run inline.
	busy atomic.Bool
	// pe captures the first panic of the current epoch.
	pe atomic.Pointer[PanicError]

	job epochJob

	mu       sync.Mutex
	wcond    *sync.Cond // workers park here between epochs
	ccond    *sync.Cond // the caller parks here awaiting completion
	sleepers atomic.Int32
	cparked  atomic.Bool
	spawned  atomic.Bool

	// tr holds the optional tracer; atomic so SetTracer can race with
	// in-flight ForEach calls from other ranks sharing the pool.
	tr atomic.Pointer[obs.Tracer]
	// waitHist, when set, observes the caller-side epoch wait (the
	// nanoseconds between the caller finishing its own chunk and the
	// last worker chunk landing) — the pool_epoch_wait histogram.
	waitHist atomic.Pointer[obs.Histogram]
}

// SetTracer attaches an event tracer: every subsequently executed chunk
// records a span on worker track 1+w and each epoch a span on the
// caller's track. nil detaches. The serial width-1 fast path stays
// span-free and allocation-free either way.
func (p *Pool) SetTracer(t *obs.Tracer) { p.tr.Store(t) }

// SetEpochWaitHistogram attaches a histogram observing the caller-side
// epoch wait in nanoseconds (time from the caller finishing its own
// chunk to epoch completion — the join tail). nil detaches. Observation
// is allocation-free (obs.Histogram is atomic log2 buckets).
func (p *Pool) SetEpochWaitHistogram(h *obs.Histogram) { p.waitHist.Store(h) }

// NewPool creates a pool with the given width (maximum parallelism and
// worker-slot count). Width < 1 is clamped to 1. Workers are spawned
// lazily on the first parallel ForEach; a width-1 pool never spawns
// anything.
func NewPool(width int) *Pool {
	if width < 1 {
		width = 1
	}
	if width > 1<<chunkBits-1 {
		width = 1<<chunkBits - 1
	}
	p := &Pool{width: width}
	p.wcond = sync.NewCond(&p.mu)
	p.ccond = sync.NewCond(&p.mu)
	return p
}

// Width returns the worker-slot count: fn's w argument is always in
// [0, Width()). Size per-worker scratch arenas by it.
func (p *Pool) Width() int { return p.width }

// spinIters bounds the Gosched spin before a worker or waiting caller
// parks on its condvar. Each iteration yields the processor, so the
// spin is cooperative even on a single-CPU host; back-to-back epochs
// (the RKC stage loop) stay inside the spin window and never touch the
// mutex.
const spinIters = 160

func (p *Pool) spawnWorkers() {
	p.mu.Lock()
	if !p.spawned.Load() {
		// width-1 resident workers; the caller of each ForEach is the
		// width-th participant.
		for w := 0; w < p.width-1; w++ {
			go p.worker()
		}
		p.spawned.Store(true)
	}
	p.mu.Unlock()
}

// worker is the persistent loop of a pool worker: observe a new epoch
// in the state word, help drain its chunks, and go back to spinning
// (then parking) for the next epoch. Epochs a worker arrives at after
// every chunk is claimed cost it one failed claim — it never touches
// the job fields.
func (p *Pool) worker() {
	// Workers are spawned before the pool's first publish, so epoch 0
	// (the initial state) is the correct baseline; reading the live
	// state here could mark an in-flight epoch as already seen.
	seen := uint64(0)
	for {
		s := p.state.Load()
		if ep := s >> chunkBits; ep != seen {
			seen = ep
			p.drain(ep, int(s&(1<<chunkBits-1)))
			continue
		}
		for i := 0; i < spinIters; i++ {
			runtime.Gosched()
			if p.state.Load() != s {
				break
			}
		}
		if p.state.Load() == s {
			p.mu.Lock()
			p.sleepers.Add(1)
			for p.state.Load() == s {
				p.wcond.Wait()
			}
			p.sleepers.Add(-1)
			p.mu.Unlock()
		}
	}
}

// drain claims and runs chunks of epoch ep until none remain (or the
// claim word has moved on to a later epoch — the participant was too
// slow and the epoch completed without it). A won claim pins the job
// fields: the epoch cannot finish, so the next publish cannot happen,
// until the chunk's done increment lands.
func (p *Pool) drain(ep uint64, chunks int) {
	tagged := ep << chunkBits
	for {
		v := p.claim.Load()
		if v>>chunkBits != ep {
			return // a later epoch owns the claim word now
		}
		c := int(v & (1<<chunkBits - 1))
		if c >= chunks {
			return // every chunk claimed
		}
		if !p.claim.CompareAndSwap(v, tagged|uint64(c+1)) {
			continue
		}
		p.runChunk(c, chunks)
		if p.done.Add(1) == int32(chunks) && p.cparked.Load() {
			p.mu.Lock()
			p.ccond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// runChunk executes chunk c of the current epoch, capturing panics into
// the epoch's panic slot. Callers must hold a won claim on c.
func (p *Pool) runChunk(c, chunks int) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 1<<14)
			buf = buf[:runtime.Stack(buf, false)]
			p.pe.CompareAndSwap(nil, &PanicError{Value: r, Stack: string(buf)})
		}
	}()
	lo, hi := chunkBounds(p.job.n, chunks, c)
	if p.job.tr != nil {
		defer p.job.tr.SpanTid(1+c, "exec", "chunk")()
	}
	p.job.fn.run(c, lo, hi)
}

// runChunkInline executes one chunk outside the epoch machinery (the
// nested/contended fallback), capturing a panic as *PanicError.
func runChunkInline(n, chunks, c int, fn body, tr *obs.Tracer) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 1<<14)
			buf = buf[:runtime.Stack(buf, false)]
			pe = &PanicError{Value: r, Stack: string(buf)}
		}
	}()
	lo, hi := chunkBounds(n, chunks, c)
	if tr != nil {
		defer tr.SpanTid(1+c, "exec", "chunk")()
	}
	fn.run(c, lo, hi)
	return nil
}

// runInline runs all chunks on the calling goroutine with the same
// chunk→slot mapping as an epoch. Like a drained epoch, every chunk
// runs even after one panics; the first panic is re-raised.
func runInline(n, chunks int, fn body, tr *obs.Tracer) {
	var first *PanicError
	for c := 0; c < chunks; c++ {
		if pe := runChunkInline(n, chunks, c, fn, tr); pe != nil && first == nil {
			first = pe
		}
	}
	if first != nil {
		panic(first)
	}
}

// ForEachChunk partitions [0, n) into at most Width contiguous chunks
// and calls fn(w, lo, hi) once per chunk, in parallel. w is the chunk
// index — stable for a given n, so per-w scratch yields deterministic
// results. Blocks until every chunk has finished; panics inside fn are
// re-raised here as *PanicError (width-1 pools run fn inline and let
// panics propagate raw, as a plain loop would).
//
// Steady-state parallel dispatch is allocation-free: one atomic publish
// hands the loop to the persistent workers, one atomic counter joins
// it.
func (p *Pool) ForEachChunk(n int, fn func(w, lo, hi int)) {
	p.run(n, body{chunk: fn})
}

// ForEach calls fn(w, i) for every i in [0, n), in parallel across at
// most Width workers. Item i always runs under the same worker slot w
// for a given n (chunked contiguously), so per-worker scratch does not
// perturb results. Blocks until done; worker panics re-raise here.
func (p *Pool) ForEach(n int, fn func(w, i int)) {
	p.run(n, body{item: fn})
}

// RunsInline reports whether a ForEachChunk over n items issued now
// would run on the calling goroutine: the pool is width 1, n is at most
// 1, or an epoch is already in flight (a call nested inside a work item,
// or racing another caller). Kernels use it to call their loop body
// directly instead of building a closure the pool would only call
// inline. The answer can go stale under a concurrent caller; either
// path computes the same results, so a stale answer costs only the
// choice of path.
func (p *Pool) RunsInline(n int) bool {
	return p.width == 1 || n <= 1 || p.busy.Load()
}

// run is the one dispatch behind ForEachChunk and ForEach.
func (p *Pool) run(n int, fn body) {
	if n <= 0 {
		return
	}
	chunks := p.width
	if chunks > n {
		chunks = n
	}
	if chunks == 1 {
		// Serial fast path: same (w, lo, hi) mapping, no machinery.
		fn.run(0, 0, n)
		return
	}
	tr := p.tr.Load()
	if !p.busy.CompareAndSwap(false, true) {
		// An epoch is in flight on this pool — we are nested inside a
		// work item or racing another caller. Run inline: identical
		// mapping, no second epoch.
		runInline(n, chunks, fn, tr)
		return
	}
	if !p.spawned.Load() {
		p.spawnWorkers()
	}
	// The epoch span lives on the caller's own track under its own
	// category ("exec" spans are reserved for worker tracks).
	var endEpoch func()
	if tr != nil {
		endEpoch = tr.Span("pool", "epoch")
	}
	// Publish the epoch: job fields first, then the claim word, then
	// the packed state word the workers key off.
	p.pe.Store(nil)
	p.done.Store(0)
	p.job.n = n
	p.job.fn = fn
	p.job.tr = tr
	ep := p.state.Load()>>chunkBits + 1
	p.claim.Store(ep << chunkBits)
	p.state.Store(ep<<chunkBits | uint64(chunks))
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.wcond.Broadcast()
		p.mu.Unlock()
	}
	// The caller helps drain its own epoch, then joins it.
	p.drain(ep, chunks)
	target := int32(chunks)
	if p.done.Load() != target {
		var t0 time.Time
		hist := p.waitHist.Load()
		if hist != nil {
			t0 = time.Now()
		}
		for i := 0; i < spinIters && p.done.Load() != target; i++ {
			runtime.Gosched()
		}
		if p.done.Load() != target {
			p.mu.Lock()
			p.cparked.Store(true)
			for p.done.Load() != target {
				p.ccond.Wait()
			}
			p.cparked.Store(false)
			p.mu.Unlock()
		}
		if hist != nil {
			hist.ObserveNs(time.Since(t0).Nanoseconds())
		}
	}
	p.job.fn = body{} // release the closure; owners have all finished
	p.job.tr = nil
	pe := p.pe.Load()
	p.busy.Store(false)
	if endEpoch != nil {
		endEpoch()
	}
	if pe != nil {
		panic(pe)
	}
}

var (
	defMu sync.Mutex
	def   *Pool
)

// Default returns the process-wide pool, created on first use with
// width runtime.GOMAXPROCS(0). Components whose optional ExecutionPort
// is unconnected fall back to it, so standard assemblies parallelize
// automatically on multicore hosts and stay serial on one CPU.
func Default() *Pool {
	defMu.Lock()
	defer defMu.Unlock()
	if def == nil {
		def = NewPool(runtime.GOMAXPROCS(0))
	}
	return def
}

// SetDefaultWidth replaces the default pool with one of the given
// width. It is a test and benchmark hook (the CCA-faithful way to pin
// the width is an ExecutionComponent with the "workers" parameter);
// callers must not have ForEach calls in flight on the old pool.
func SetDefaultWidth(width int) {
	defMu.Lock()
	def = NewPool(width)
	defMu.Unlock()
}
