package exec

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/field"
	"ccahydro/internal/telemetry"
)

// TestForEachMatchesSerial checks the determinism contract: a parallel
// ForEach produces bit-for-bit the same results as a plain serial loop.
func TestForEachMatchesSerial(t *testing.T) {
	const n = 1003
	f := func(i int) float64 {
		x := float64(i) * 0.37
		return math.Sin(x)*math.Exp(-x/100) + math.Sqrt(x+1)
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		want[i] = f(i)
	}
	for _, width := range []int{1, 2, 3, 4, 8, 17} {
		p := NewPool(width)
		got := make([]float64, n)
		// Run several times: scheduling must never matter.
		for rep := 0; rep < 3; rep++ {
			for i := range got {
				got[i] = 0
			}
			p.ForEach(n, func(_, i int) { got[i] = f(i) })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("width %d rep %d: got[%d] = %v, want %v", width, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForEachChunkCoverage checks every index is visited exactly once
// and worker slots stay in range.
func TestForEachChunkCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, width := range []int{1, 3, 8} {
			p := NewPool(width)
			visits := make([]int32, n)
			p.ForEachChunk(n, func(w, lo, hi int) {
				if w < 0 || w >= p.Width() {
					t.Errorf("worker slot %d out of [0, %d)", w, p.Width())
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d width=%d: index %d visited %d times", n, width, i, v)
				}
			}
		}
	}
}

// TestWorkerSlotStable checks that item i maps to the same worker slot
// on every run — the property per-worker scratch determinism rests on.
func TestWorkerSlotStable(t *testing.T) {
	const n = 211
	p := NewPool(4)
	ref := make([]int, n)
	p.ForEach(n, func(w, i int) { ref[i] = w })
	for rep := 0; rep < 5; rep++ {
		got := make([]int, n)
		p.ForEach(n, func(w, i int) { got[i] = w })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("rep %d: item %d ran under slot %d, previously %d", rep, i, got[i], ref[i])
			}
		}
	}
}

// TestPanicPropagation checks a worker panic surfaces in the caller as
// *PanicError carrying the original value.
func TestPanicPropagation(t *testing.T) {
	p := NewPool(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if pe.Value != "boom 7" {
			t.Errorf("panic value = %v, want %q", pe.Value, "boom 7")
		}
		if pe.Stack == "" {
			t.Error("panic stack not captured")
		}
	}()
	p.ForEach(64, func(_, i int) {
		if i == 7 {
			panic("boom 7")
		}
	})
}

// TestPanicDoesNotPoisonPool checks the pool keeps working after a
// panicked loop.
func TestPanicDoesNotPoisonPool(t *testing.T) {
	p := NewPool(4)
	func() {
		defer func() { recover() }()
		p.ForEach(32, func(_, i int) { panic(i) })
	}()
	var sum int64
	p.ForEach(100, func(_, i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum after panic = %d, want 4950", sum)
	}
}

// TestNestedForEach checks an inner ForEach issued from inside an outer
// one completes (no deadlock) and computes correctly even when the
// outer loop saturates every worker.
func TestNestedForEach(t *testing.T) {
	p := NewPool(4)
	const outer, inner = 16, 257
	totals := make([]int64, outer)
	p.ForEach(outer, func(_, oi int) {
		var s int64
		p.ForEach(inner, func(_, ii int) { atomic.AddInt64(&s, int64(ii)) })
		totals[oi] = s
	})
	want := int64(inner * (inner - 1) / 2)
	for oi, s := range totals {
		if s != want {
			t.Fatalf("outer %d: inner sum = %d, want %d", oi, s, want)
		}
	}
	// Three levels deep, for good measure.
	var deep int64
	p.ForEach(4, func(_, _ int) {
		p.ForEach(4, func(_, _ int) {
			p.ForEach(4, func(_, _ int) { atomic.AddInt64(&deep, 1) })
		})
	})
	if deep != 64 {
		t.Fatalf("triple-nested count = %d, want 64", deep)
	}
}

// TestArenaDeterminism checks per-worker arena scratch does not perturb
// results: slot w is private to chunk w, values never leak across items.
func TestArenaDeterminism(t *testing.T) {
	const n = 500
	p := NewPool(8)
	arena := NewArena(p, func() []float64 { return make([]float64, 4) })
	out := make([]float64, n)
	p.ForEach(n, func(w, i int) {
		s := arena.Get(w)
		s[0] = float64(i)
		s[1] = s[0] * s[0]
		out[i] = s[1] + 1
	})
	for i := range out {
		if want := float64(i)*float64(i) + 1; out[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want)
		}
	}
	if arena.Width() != p.Width() {
		t.Errorf("arena width %d != pool width %d", arena.Width(), p.Width())
	}
}

// TestForEachPatchDisjointWrites is the -race stress test: concurrent
// workers write every cell of disjoint ghost-padded patches through the
// PatchData API, repeatedly, while a nested loop reads them back. Any
// overlap or pool bug shows up under the race detector.
func TestForEachPatchDisjointWrites(t *testing.T) {
	h := amr.NewHierarchy(amr.NewBox(0, 0, 63, 63), 2, 1, 1)
	d := field.New("u", h, 3, 2, nil)
	// Split level 0 into many patches by regridding is unnecessary:
	// build patch data over disjoint boxes directly.
	patches := append([]*field.PatchData(nil), d.LocalPatches(0)...)
	if len(patches) == 0 {
		t.Fatal("no patches")
	}
	// Manufacture extra disjoint patches to give the pool real fan-out.
	for k := 0; k < 12; k++ {
		b := amr.NewBox(k*8, 70, k*8+7, 77)
		patches = append(patches, field.NewPatchData(&amr.Patch{ID: 100 + k, Box: b}, 3, 2))
	}
	p := NewPool(8)
	for rep := 0; rep < 20; rep++ {
		p.ForEach(len(patches), func(_, k int) {
			pd := patches[k]
			b := pd.Interior()
			for c := 0; c < pd.NComp; c++ {
				for j := b.Lo[1]; j <= b.Hi[1]; j++ {
					for i := b.Lo[0]; i <= b.Hi[0]; i++ {
						pd.Set(c, i, j, float64(c*1000+i+j*7+rep))
					}
				}
			}
		})
		// Read back in a second parallel sweep.
		p.ForEach(len(patches), func(_, k int) {
			pd := patches[k]
			b := pd.Interior()
			for c := 0; c < pd.NComp; c++ {
				for j := b.Lo[1]; j <= b.Hi[1]; j++ {
					for i := b.Lo[0]; i <= b.Hi[0]; i++ {
						if got, want := pd.At(c, i, j), float64(c*1000+i+j*7+rep); got != want {
							t.Errorf("patch %d cell (%d,%d,%d) = %v, want %v", pd.Patch.ID, c, i, j, got, want)
							return
						}
					}
				}
			}
		})
	}
}

// TestSerialPoolNoGoroutines checks width-1 pools never spawn workers
// (the SCMD pinning contract: pinned ranks stay strictly serial).
func TestSerialPoolNoGoroutines(t *testing.T) {
	p := NewPool(1)
	ran := 0
	p.ForEach(10, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial pool used slot %d", w)
		}
		ran++
	})
	if ran != 10 {
		t.Fatalf("ran %d items, want 10", ran)
	}
	// The epoch machinery must not have been touched: no workers
	// spawned, no epoch published.
	if p.spawned.Load() {
		t.Fatal("width-1 pool spawned workers")
	}
	if p.state.Load() != 0 {
		t.Fatalf("width-1 pool published an epoch: state=%#x", p.state.Load())
	}
}

// TestForEachChunkEdgeCases locks in the boundary behavior of the
// epoch path: empty and negative loops do nothing, n < width produces
// exactly n one-item chunks, n == width one item per slot, and chunk
// ranges tile [0, n) in order.
func TestForEachChunkEdgeCases(t *testing.T) {
	cases := []struct {
		n, width   int
		wantChunks int
	}{
		{n: 0, width: 4, wantChunks: 0},
		{n: -3, width: 4, wantChunks: 0},
		{n: 1, width: 4, wantChunks: 1},
		{n: 3, width: 8, wantChunks: 3}, // n < width: one item per chunk
		{n: 4, width: 4, wantChunks: 4}, // n == width
		{n: 5, width: 4, wantChunks: 4},
		{n: 100, width: 1, wantChunks: 1},
	}
	for _, tc := range cases {
		p := NewPool(tc.width)
		var mu sync.Mutex
		type rng struct{ w, lo, hi int }
		var got []rng
		p.ForEachChunk(tc.n, func(w, lo, hi int) {
			mu.Lock()
			got = append(got, rng{w, lo, hi})
			mu.Unlock()
		})
		if len(got) != tc.wantChunks {
			t.Errorf("n=%d width=%d: %d chunks, want %d", tc.n, tc.width, len(got), tc.wantChunks)
			continue
		}
		sort.Slice(got, func(i, j int) bool { return got[i].w < got[j].w })
		next := 0
		for c, r := range got {
			if r.w != c {
				t.Errorf("n=%d width=%d: chunk %d ran under slot %d", tc.n, tc.width, c, r.w)
			}
			if r.lo != next || r.hi <= r.lo {
				t.Errorf("n=%d width=%d: chunk %d range [%d,%d), want lo=%d and non-empty",
					tc.n, tc.width, c, r.lo, r.hi, next)
			}
			if tc.n < tc.width && r.hi-r.lo != 1 {
				t.Errorf("n=%d width=%d: chunk %d has %d items, want 1", tc.n, tc.width, c, r.hi-r.lo)
			}
			next = r.hi
		}
		if tc.wantChunks > 0 && next != tc.n {
			t.Errorf("n=%d width=%d: chunks cover [0,%d), want [0,%d)", tc.n, tc.width, next, tc.n)
		}
	}
}

// TestNestedFromWorkerMapping checks that a ForEach issued from inside
// a worker chunk (the inline fallback) uses the same deterministic
// chunk→slot mapping as a top-level parallel loop.
func TestNestedFromWorkerMapping(t *testing.T) {
	p := NewPool(4)
	const inner = 10
	ref := make([]int, inner)
	p.ForEach(inner, func(w, i int) { ref[i] = w }) // top-level mapping
	slots := make([][]int, 4)
	p.ForEachChunk(4, func(w, lo, hi int) {
		m := make([]int, inner)
		p.ForEach(inner, func(iw, i int) { m[i] = iw }) // nested: inline
		slots[w] = m
	})
	for w, m := range slots {
		for i := range m {
			if m[i] != ref[i] {
				t.Fatalf("outer slot %d: nested item %d ran under slot %d, top-level uses %d",
					w, i, m[i], ref[i])
			}
		}
	}
}

// TestConcurrentCallersSharedPool checks the SCMD sharing contract: any
// number of goroutines may drive ForEach on one pool concurrently (one
// wins the epoch machinery, the rest run inline) with correct results
// and no deadlock. Run under -race in scripts/check.sh.
func TestConcurrentCallersSharedPool(t *testing.T) {
	p := NewPool(4)
	const callers, loops, n = 6, 25, 300
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < loops; rep++ {
				var sum int64
				p.ForEach(n, func(_, i int) { atomic.AddInt64(&sum, int64(i)) })
				if sum != n*(n-1)/2 {
					errs <- fmt.Errorf("sum = %d, want %d", sum, n*(n-1)/2)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPanicInCallerChunk checks a panic in the caller-owned last chunk
// surfaces as *PanicError exactly like a worker panic, and the pool
// stays usable.
func TestPanicInCallerChunk(t *testing.T) {
	p := NewPool(4)
	func() {
		defer func() {
			r := recover()
			pe, ok := r.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T (%v), want *PanicError", r, r)
			}
			if pe.Value != "last chunk" {
				t.Errorf("panic value = %v, want %q", pe.Value, "last chunk")
			}
		}()
		p.ForEachChunk(4, func(w, lo, hi int) {
			if w == 3 { // the caller's own chunk
				panic("last chunk")
			}
		})
	}()
	var sum int64
	p.ForEach(10, func(_, i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 45 {
		t.Fatalf("sum after caller panic = %d, want 45", sum)
	}
}

// TestNestedPanicPropagation checks panics cross the inline fallback of
// a nested loop as *PanicError without disturbing the outer epoch.
func TestNestedPanicPropagation(t *testing.T) {
	p := NewPool(4)
	var caught int64
	p.ForEachChunk(4, func(w, lo, hi int) {
		err := func() (err any) {
			defer func() { err = recover() }()
			p.ForEach(8, func(_, i int) {
				if i == 5 {
					panic("inner")
				}
			})
			return nil
		}()
		if pe, ok := err.(*PanicError); ok && pe.Value == "inner" {
			atomic.AddInt64(&caught, 1)
		}
	})
	if caught != 4 {
		t.Fatalf("nested panic caught in %d/4 outer chunks", caught)
	}
}

// TestEpochHandoffZeroAlloc is the steady-state allocation gate for the
// epoch engine: after warm-up, a parallel ForEachChunk must not
// allocate — the epoch publish is one atomic store and the join one
// atomic counter, with the job descriptor reused in place.
func TestEpochHandoffZeroAlloc(t *testing.T) {
	p := NewPool(4)
	var cells [256]float64
	fn := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cells[i] += float64(i)
		}
	}
	p.ForEachChunk(len(cells), fn) // warm up: spawn workers
	allocs := testing.AllocsPerRun(200, func() {
		p.ForEachChunk(len(cells), fn)
	})
	if allocs != 0 {
		t.Fatalf("epoch handoff allocates %.1f objects/op, want 0", allocs)
	}
}

// TestForEachZeroAlloc extends the gate to ForEach: the pool calls the
// per-item body over each chunk itself, so a warm ForEach with a
// prebuilt body allocates nothing, inline (width 1) or in an epoch.
func TestForEachZeroAlloc(t *testing.T) {
	var cells [256]float64
	fn := func(_, i int) { cells[i] += float64(i) }
	for _, width := range []int{1, 4} {
		p := NewPool(width)
		p.ForEach(len(cells), fn) // warm up: spawn workers
		if allocs := testing.AllocsPerRun(200, func() { p.ForEach(len(cells), fn) }); allocs != 0 {
			t.Errorf("width %d: ForEach allocates %.1f objects/op, want 0", width, allocs)
		}
	}
}

// TestRunsInline: a loop runs inline on a width-1 pool, for at most one
// item, and inside a running epoch; an idle wider pool fans out.
func TestRunsInline(t *testing.T) {
	if !NewPool(1).RunsInline(100) {
		t.Error("width-1 pool reports it would fan out")
	}
	p := NewPool(2)
	if p.RunsInline(100) || !p.RunsInline(1) {
		t.Errorf("idle width-2 pool: RunsInline(100) = %v, RunsInline(1) = %v; want false, true",
			p.RunsInline(100), p.RunsInline(1))
	}
	var nested [2]bool
	p.ForEachChunk(2, func(w, _, _ int) { nested[w] = p.RunsInline(100) })
	if !nested[0] || !nested[1] {
		t.Errorf("inside an epoch RunsInline = %v, want true in every chunk", nested)
	}
}

// TestEpochHandoffZeroAllocTelemetryAttached repeats the epoch-engine
// allocation gate with the live telemetry plane in the picture: a hub
// with this rank's handle attached and a per-step NoteStep in the
// measured body, exactly what an instrumented driver step does around
// its ForEachChunk calls. The epoch handoff itself has no telemetry
// emit sites, and the per-step structured event rides the in-place
// flight buffer — the combined loop must still be 0 allocs/op.
func TestEpochHandoffZeroAllocTelemetryAttached(t *testing.T) {
	hub := telemetry.NewHub(1, nil)
	hub.SetFlightDir(t.TempDir())
	rk := hub.Rank(0)
	rk.SetClock(func() float64 { return 1.0 })
	p := NewPool(4)
	var cells [256]float64
	fn := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cells[i] += float64(i)
		}
	}
	p.ForEachChunk(len(cells), fn) // warm up: spawn workers
	rk.NoteStep(0)                 // warm the event-count map
	allocs := testing.AllocsPerRun(200, func() {
		rk.NoteStep(1)
		p.ForEachChunk(len(cells), fn)
	})
	if allocs != 0 {
		t.Fatalf("telemetry-attached epoch handoff allocates %.1f objects/op, want 0", allocs)
	}
}

func TestDefaultPoolWidthOverride(t *testing.T) {
	SetDefaultWidth(3)
	if w := Default().Width(); w != 3 {
		t.Fatalf("default width = %d, want 3", w)
	}
	SetDefaultWidth(0) // clamps to 1
	if w := Default().Width(); w != 1 {
		t.Fatalf("default width = %d, want 1", w)
	}
}
