package field

import (
	"sync"
	"testing"

	"ccahydro/internal/amr"
	"ccahydro/internal/mpi"
	"ccahydro/internal/telemetry"
)

// raggedBlocks builds a deliberately uneven multi-patch decomposition
// of an n x n domain, dealt round-robin over p ranks so every rank owns
// several patches and shares several overlap regions with each
// neighbor — the shape coalescing exists for.
func raggedBlocks(n, p int) ([]amr.Box, []int) {
	domain := amr.NewBox(0, 0, n-1, n-1)
	blocks := amr.SplitLargeBoxes([]amr.Box{domain}, n*n/(3*p))
	owners := make([]int, len(blocks))
	for i := range owners {
		owners[i] = i % p
	}
	return blocks, owners
}

// paintOwned writes a deterministic value keyed by (patch, comp, cell)
// into every interior cell, identically on any rank layout.
func paintOwned(d *DataObject, level int) {
	for _, pd := range d.LocalPatches(level) {
		b := pd.Interior()
		for c := 0; c < d.NComp; c++ {
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for i := b.Lo[0]; i <= b.Hi[0]; i++ {
					pd.Set(c, i, j, float64((pd.Patch.ID+1)*1000+c*100)+0.25*float64(i)+0.125*float64(j))
				}
			}
		}
	}
}

// TestCoalescedMessageCountAtMostNeighborRanks is the coalescing
// invariant: one exchange sends at most one message per neighboring
// rank, however many overlap regions it carries — and the substrate's
// send counter agrees with the schedule's claim.
func TestCoalescedMessageCountAtMostNeighborRanks(t *testing.T) {
	const p = 4
	blocks, owners := raggedBlocks(24, p)
	mpi.Run(p, mpi.ZeroModel, func(comm *mpi.Comm) {
		h := amr.NewHierarchyDecomposed(amr.NewBox(0, 0, 23, 23), 2, 1, p, blocks, owners)
		d := New("u", h, 2, 2, comm)
		paintOwned(d, 0)
		info := d.ExchangeInfo(0)
		if info.SendMsgs > info.NeighborRanks {
			t.Errorf("rank %d: %d msgs/exchange > %d neighbor ranks", comm.Rank(), info.SendMsgs, info.NeighborRanks)
		}
		if info.RemoteTransfers <= info.SendMsgs {
			t.Errorf("rank %d: coalescing merged nothing (%d regions, %d msgs) — decomposition too simple for the test",
				comm.Rank(), info.RemoteTransfers, info.SendMsgs)
		}
		before := comm.Stats().Sends
		d.ExchangeGhosts(0)
		if got := comm.Stats().Sends - before; got != info.SendMsgs {
			t.Errorf("rank %d: exchange sent %d messages, schedule claims %d", comm.Rank(), got, info.SendMsgs)
		}
	})
}

// ghostBuilds counts ghost-schedule constructions (cache misses).
func ghostBuilds(d *DataObject) int { return d.builds[phaseGhost] }

// xferBuilds counts coarse–fine (shadow and restrict) schedule
// constructions, the way ghostBuilds counts the ghost phase.
func xferBuilds(d *DataObject) int { return d.builds[phaseShadow] + d.builds[phaseRestrict] }

// TestScheduleCacheInvalidatesOnRegrid asserts the schedule is built
// once per (level, hierarchy): repeated exchanges reuse it, and a
// regrid, which remaps onto the successor hierarchy, builds afresh.
func TestScheduleCacheInvalidatesOnRegrid(t *testing.T) {
	h := amr.NewHierarchy(amr.NewBox(0, 0, 31, 31), 2, 2, 1)
	d := New("u", h, 1, 2, nil)
	for i := 0; i < 5; i++ {
		d.ExchangeGhosts(0)
	}
	if got := ghostBuilds(d); got != 1 {
		t.Fatalf("5 exchanges built %d schedules, want 1 (cache miss per call)", got)
	}
	f := amr.NewFlagField(h.LevelDomain(0))
	f.SetBox(amr.NewBox(8, 8, 23, 23))
	h = h.Regrid([]*amr.FlagField{f}, amr.DefaultRegridOptions)
	d = New("u", h, 1, 2, nil) // fresh data over the regridded hierarchy
	d.ExchangeGhosts(0)
	d.ExchangeGhosts(1)
	d.ExchangeGhosts(0)
	d.ExchangeGhosts(1)
	if got := ghostBuilds(d); got != 2 {
		t.Fatalf("2 levels exchanged twice built %d schedules, want 2", got)
	}
	// A regrid leaves its receiver, and data on it keeps its cache;
	// the data remapped onto the successor builds its own.
	f2 := amr.NewFlagField(h.LevelDomain(0))
	f2.SetBox(amr.NewBox(4, 4, 19, 19))
	nd := d.Remap(h.Regrid([]*amr.FlagField{f2}, amr.DefaultRegridOptions), ProlongLinear)
	d.ExchangeGhosts(0)
	if got := ghostBuilds(d); got != 2 {
		t.Fatalf("exchange on the receiver's data after a regrid built %d schedules total, want 2", got)
	}
	nd.ExchangeGhosts(0)
	nd.ExchangeGhosts(0)
	if got := ghostBuilds(nd); got != 1 {
		t.Fatalf("remapped data built %d schedules, want 1", got)
	}
}

// TestStartFinishSplitMatchesMonolithic runs the same exchange through
// ExchangeGhosts and through the Start/Finish split with a collective
// in the window, and demands bit-for-bit identical ghosts — the
// correctness contract that lets drivers compute between the halves.
func TestStartFinishSplitMatchesMonolithic(t *testing.T) {
	const p = 4
	blocks, owners := raggedBlocks(24, p)
	var mu sync.Mutex
	mono := make(map[int][]float64)
	split := make(map[int][]float64)
	collect := func(d *DataObject, into map[int][]float64) {
		mu.Lock()
		defer mu.Unlock()
		for _, pd := range d.LocalPatches(0) {
			g := pd.GrownBox()
			var vals []float64
			for c := 0; c < d.NComp; c++ {
				for j := g.Lo[1]; j <= g.Hi[1]; j++ {
					for i := g.Lo[0]; i <= g.Hi[0]; i++ {
						vals = append(vals, pd.At(c, i, j))
					}
				}
			}
			into[pd.Patch.ID] = vals
		}
	}
	mpi.Run(p, mpi.CPlantModel, func(comm *mpi.Comm) {
		h := amr.NewHierarchyDecomposed(amr.NewBox(0, 0, 23, 23), 2, 1, p, blocks, owners)
		a := New("a", h, 2, 2, comm)
		b := New("b", h, 2, 2, comm)
		paintOwned(a, 0)
		paintOwned(b, 0)
		a.ExchangeGhosts(0)
		ex := b.ExchangeGhostsStart(0)
		// Unrelated traffic inside the window must not be confused with
		// the stream-tagged exchange messages.
		comm.AllreduceScalar(mpi.OpMax, float64(comm.Rank()))
		ex.Finish()
		ex.Finish() // idempotent
		collect(a, mono)
		collect(b, split)
	})
	if len(mono) == 0 || len(mono) != len(split) {
		t.Fatalf("collected %d vs %d patches", len(mono), len(split))
	}
	for id, want := range mono {
		got := split[id]
		if len(got) != len(want) {
			t.Fatalf("patch %d: %d vs %d cells", id, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("patch %d cell %d: monolithic %v, split %v", id, k, want[k], got[k])
			}
		}
	}
}

// TestCoalescedParallelMatchesSerial compares every cell (interiors and
// filled ghosts) of a ragged multi-patch exchange between the serial
// path and the 4-rank coalesced path.
func TestCoalescedParallelMatchesSerial(t *testing.T) {
	const p = 4
	blocks, owners := raggedBlocks(20, p)
	domain := amr.NewBox(0, 0, 19, 19)

	serial := make(map[int][]float64)
	hs := amr.NewHierarchyDecomposed(domain, 2, 1, p, blocks, owners)
	ds := New("u", hs, 2, 2, nil)
	paintOwned(ds, 0)
	ds.ExchangeGhosts(0)
	for _, pd := range ds.LocalPatches(0) {
		g := pd.GrownBox()
		var vals []float64
		for c := 0; c < ds.NComp; c++ {
			for j := g.Lo[1]; j <= g.Hi[1]; j++ {
				for i := g.Lo[0]; i <= g.Hi[0]; i++ {
					vals = append(vals, pd.At(c, i, j))
				}
			}
		}
		serial[pd.Patch.ID] = vals
	}

	var mu sync.Mutex
	checked := 0
	mpi.Run(p, mpi.CPlantModel, func(comm *mpi.Comm) {
		h := amr.NewHierarchyDecomposed(domain, 2, 1, p, blocks, owners)
		d := New("u", h, 2, 2, comm)
		paintOwned(d, 0)
		d.ExchangeGhosts(0)
		mu.Lock()
		defer mu.Unlock()
		for _, pd := range d.LocalPatches(0) {
			want := serial[pd.Patch.ID]
			g := pd.GrownBox()
			k := 0
			for c := 0; c < d.NComp; c++ {
				for j := g.Lo[1]; j <= g.Hi[1]; j++ {
					for i := g.Lo[0]; i <= g.Hi[0]; i++ {
						if pd.At(c, i, j) != want[k] {
							t.Errorf("patch %d c=%d (%d,%d): parallel %v, serial %v",
								pd.Patch.ID, c, i, j, pd.At(c, i, j), want[k])
							return
						}
						k++
					}
				}
			}
			checked++
		}
	})
	if checked != len(serial) {
		t.Fatalf("checked %d patches, serial run had %d", checked, len(serial))
	}
}

// lockstep starts a p-rank cohort whose ranks run the tick that setup
// returns once per call of the returned step function. Every rank runs
// its tick twice before lockstep returns (the first builds the
// schedule, pack buffers, and requests; the second primes the
// substrate's payload free list). stop tears the cohort down.
func lockstep(p int, setup func(*mpi.Comm) func()) (step func(), stop func()) {
	start := make([]chan struct{}, p)
	for r := range start {
		start[r] = make(chan struct{})
	}
	done := make(chan struct{}, p)
	go mpi.Run(p, mpi.CPlantModel, func(comm *mpi.Comm) {
		tick := setup(comm)
		tick()
		tick()
		done <- struct{}{}
		for range start[comm.Rank()] {
			tick()
			done <- struct{}{}
		}
	})
	for r := 0; r < p; r++ {
		<-done
	}
	step = func() {
		for r := 0; r < p; r++ {
			start[r] <- struct{}{}
		}
		for r := 0; r < p; r++ {
			<-done
		}
	}
	stop = func() {
		for r := 0; r < p; r++ {
			close(start[r])
		}
	}
	return step, stop
}

// lockstepExchangers is a lockstep cohort whose ranks exchange level-0
// ghosts of a ragged decomposition once per step.
func lockstepExchangers(p int, blocks []amr.Box, owners []int, attach ...func(*mpi.Comm)) (step func(), stop func()) {
	return lockstep(p, func(comm *mpi.Comm) func() {
		for _, a := range attach {
			a(comm)
		}
		h := amr.NewHierarchyDecomposed(amr.NewBox(0, 0, 23, 23), 2, 1, p, blocks, owners)
		d := New("u", h, 2, 2, comm)
		paintOwned(d, 0)
		return func() { d.ExchangeGhosts(0) }
	})
}

// TestExchangeGhostsSteadyStateZeroAlloc enforces the persistent-
// communication contract: once the schedule, pack buffers, receive
// requests, and payload pool are warm, a full 4-rank coalesced exchange
// allocates nothing on any rank.
func TestExchangeGhostsSteadyStateZeroAlloc(t *testing.T) {
	const p = 4
	blocks, owners := raggedBlocks(24, p)
	step, stop := lockstepExchangers(p, blocks, owners)
	defer stop()
	// Global malloc counting: all p ranks run inside the measured
	// function, so any allocation anywhere in the exchange shows up.
	if avg := testing.AllocsPerRun(10, step); avg > 0 {
		t.Errorf("steady-state exchange allocates %.1f objects per round, want 0", avg)
	}
}

// TestExchangeGhostsZeroAllocTelemetryAttached repeats the steady-state
// allocation gate with the live telemetry plane wired to every rank's
// communicator (clock sampler + substrate event sink, exactly what
// ccarun -serve attaches). The exchange hot path has no telemetry emit
// sites, and the attached sink must not change that: still 0 allocs per
// round.
func TestExchangeGhostsZeroAllocTelemetryAttached(t *testing.T) {
	const p = 4
	hub := telemetry.NewHub(p, nil)
	blocks, owners := raggedBlocks(24, p)
	step, stop := lockstepExchangers(p, blocks, owners, func(comm *mpi.Comm) {
		rk := hub.Rank(comm.Rank())
		rk.SetClock(comm.VirtualTime)
		comm.SetEvents(rk.Substrate())
		rk.NoteStep(0)
	})
	defer stop()
	if avg := testing.AllocsPerRun(10, step); avg > 0 {
		t.Errorf("telemetry-attached exchange allocates %.1f objects per round, want 0", avg)
	}
}

// BenchmarkExchangeGhostsSteadyState times one lockstep 4-rank ghost
// exchange; run with -benchmem to see the 0 allocs/op.
func BenchmarkExchangeGhostsSteadyState(b *testing.B) {
	const p = 4
	blocks, owners := raggedBlocks(24, p)
	step, stop := lockstepExchangers(p, blocks, owners)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestExchangeInfoWordsMatchTraffic pins the schedule's volume
// accounting to the substrate's word counter.
func TestExchangeInfoWordsMatchTraffic(t *testing.T) {
	const p = 4
	blocks, owners := raggedBlocks(24, p)
	mpi.Run(p, mpi.ZeroModel, func(comm *mpi.Comm) {
		h := amr.NewHierarchyDecomposed(amr.NewBox(0, 0, 23, 23), 2, 1, p, blocks, owners)
		d := New("u", h, 3, 2, comm)
		paintOwned(d, 0)
		info := d.ExchangeInfo(0)
		before := comm.Stats().WordsSent
		d.ExchangeGhosts(0)
		if got := comm.Stats().WordsSent - before; got != info.SendWords {
			t.Errorf("rank %d: exchange sent %d words, schedule claims %d", comm.Rank(), got, info.SendWords)
		}
	})
}
