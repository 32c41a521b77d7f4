package field

import (
	"fmt"
	"sort"

	"ccahydro/internal/amr"
	"ccahydro/internal/mpi"
)

// Communication schedules: one copy-schedule engine drives every
// transfer phase — same-level ghost exchange, coarse→shadow fill
// (prolongation), restriction, and regrid remap. Each phase's transfer
// list is grouped by communicating peer so that all regions bound for
// one destination rank travel in a single coalesced message per
// exchange. Message count per exchange drops from #overlap-regions to
// ≤ #neighbor-ranks, amortizing the per-message alpha cost exactly as
// production SAMR frameworks do. The ghost, shadow and restrict
// schedules are cached per (phase, level) on a DataObject, whose
// hierarchy never changes, so the region enumeration runs once per
// regrid instead of on every exchange; remap schedules couple two
// hierarchies and are built once per remap.

// phase distinguishes the independent transfer streams so that messages
// from different protocol steps can never be confused, even when an
// exchange is split into Start/Finish and other collectives run inside
// the window.
type phase int

const (
	phaseGhost phase = iota
	phaseShadow
	phaseRestrict
	phaseRemap
)

func (ph phase) String() string {
	switch ph {
	case phaseGhost:
		return "ghost"
	case phaseShadow:
		return "shadow"
	case phaseRestrict:
		return "restrict"
	case phaseRemap:
		return "remap"
	}
	return "phase?"
}

// streamTag derives the deterministic per-(phase, level) message tag.
// The range sits far below the collective tag space (which grows
// downward from -1000) and never touches user tags (>= 0). Messages
// between the same pair in the same phase+level rely on the substrate's
// per-pair FIFO ordering, which coalescing preserves: there is at most
// one message per peer per exchange.
func streamTag(ph phase, level int) int {
	return -100000 - int(ph)*256 - level
}

// transfer is one region move between two patches in the same index
// space.
type transfer struct {
	srcID, dstID       int
	srcOwner, dstOwner int
	region             amr.Box
}

// peerMsg is one coalesced message: the transfers (by index into the
// phase's transfer list, in list order) that share a peer rank.
type peerMsg struct {
	rank  int
	items []int
	words int
}

// commPlan is a transfer list grouped by peer: the messages this rank
// sends and receives. Both slices are ordered by peer rank.
type commPlan struct {
	sends []peerMsg
	recvs []peerMsg
}

// schedKey identifies a cached schedule: one per phase and level (the
// fine level for shadow and restrict).
type schedKey struct {
	ph    phase
	level int
}

// schedule is the transfer plan of one (phase, level): the
// deterministic transfer list, its peer grouping, per-transfer
// receive-buffer offsets, persistent buffers, and — for the shadow and
// restrict phases — the coarse-space scratch patches the transfers
// read or write. A cached schedule lives as long as its DataObject.
type schedule struct {
	ph    phase
	level int
	ts    []transfer
	plan  commPlan

	// scratch holds the phase's patch-aligned intermediates (shadows
	// for phaseShadow, restriction temporaries for phaseRestrict),
	// keyed by fine patch ID. Allocated zeroed once per schedule:
	// every transfer and every averaging sweep rewrites exactly the
	// same cells on every reuse, and cells no transfer covers must
	// read as zero — which they do, forever, because nothing ever
	// writes them.
	scratch map[int]*PatchData

	// rings lists, for the shadow phase, each owned fine patch's ghost
	// ring (its grown box minus its interior) by patch ID: the regions
	// FillCoarseFineGhosts interpolates, fixed for the schedule's life.
	rings map[int][]amr.Box

	// recvOf[i] is the plan.recvs index of the coalesced message
	// carrying transfer i (-1 if not received here); viewOff[i] its
	// word offset inside that buffer.
	recvOf  []int
	viewOff []int

	// Persistent exchange state (the MPI persistent-communication
	// pattern): message sizes are fixed for the life of the schedule, so
	// pack buffers and receive requests are allocated once and reused by
	// every exchange. Together with the substrate's payload recycling
	// this makes steady-state exchanges allocation-free.
	sendBufs [][]float64   // one pack buffer per plan.sends entry
	reqs     []mpi.Request // one reusable request per plan.recvs entry
	bufs     [][]float64   // received payloads, held until applied
	exch     Exchange      // the in-flight handle start returns
}

// words is the exact on-wire size of one transfer. Transfer regions are
// always contained in both endpoints' storage boxes (the enumeration
// guarantees it), so sender and receiver compute identical counts from
// replicated metadata alone.
func (d *DataObject) words(t transfer) int {
	return d.NComp * t.region.NumCells()
}

// newSchedule groups ts by peer rank for this endpoint, computes the
// receive-offset tables, and allocates the persistent buffers.
func (d *DataObject) newSchedule(ph phase, level int, ts []transfer) *schedule {
	s := &schedule{ph: ph, level: level, ts: ts}
	sendIdx := make(map[int]int)
	recvIdx := make(map[int]int)
	for i, t := range ts {
		w := d.words(t)
		switch {
		case t.srcOwner == d.rank && t.dstOwner != d.rank:
			k, ok := sendIdx[t.dstOwner]
			if !ok {
				k = len(s.plan.sends)
				sendIdx[t.dstOwner] = k
				s.plan.sends = append(s.plan.sends, peerMsg{rank: t.dstOwner})
			}
			s.plan.sends[k].items = append(s.plan.sends[k].items, i)
			s.plan.sends[k].words += w
		case t.dstOwner == d.rank && t.srcOwner != d.rank:
			k, ok := recvIdx[t.srcOwner]
			if !ok {
				k = len(s.plan.recvs)
				recvIdx[t.srcOwner] = k
				s.plan.recvs = append(s.plan.recvs, peerMsg{rank: t.srcOwner})
			}
			s.plan.recvs[k].items = append(s.plan.recvs[k].items, i)
			s.plan.recvs[k].words += w
		}
	}
	sort.Slice(s.plan.sends, func(a, b int) bool { return s.plan.sends[a].rank < s.plan.sends[b].rank })
	sort.Slice(s.plan.recvs, func(a, b int) bool { return s.plan.recvs[a].rank < s.plan.recvs[b].rank })
	s.recvOf = make([]int, len(ts))
	s.viewOff = make([]int, len(ts))
	for i := range s.recvOf {
		s.recvOf[i] = -1
	}
	for k, pm := range s.plan.recvs {
		off := 0
		for _, idx := range pm.items {
			s.recvOf[idx] = k
			s.viewOff[idx] = off
			off += d.words(ts[idx])
		}
	}
	if d.comm != nil {
		s.reqs = make([]mpi.Request, len(s.plan.recvs))
		s.bufs = make([][]float64, len(s.plan.recvs))
		s.sendBufs = make([][]float64, len(s.plan.sends))
		for k, pm := range s.plan.sends {
			s.sendBufs[k] = make([]float64, 0, pm.words)
		}
	}
	return s
}

// scheduleFor returns the cached schedule of a phase on a level,
// building it on first use. Remap schedules couple two hierarchies and
// are not cached.
func (d *DataObject) scheduleFor(ph phase, level int) *schedule {
	key := schedKey{ph, level}
	if s, ok := d.sched[key]; ok {
		return s
	}
	lv := d.h.Level(level)
	var s *schedule
	switch ph {
	case phaseGhost:
		s = d.newSchedule(ph, level, d.buildGhostTransfers(level))
	case phaseShadow:
		s = d.newSchedule(ph, level, d.buildShadowTransfers(level))
		s.scratch = d.coarseScratch(lv, d.shadowBox)
		s.rings = d.ghostRings(lv)
	case phaseRestrict:
		s = d.newSchedule(ph, level, d.buildRestrictTransfers(level))
		s.scratch = d.coarseScratch(lv, func(fp *amr.Patch) amr.Box { return fp.Box.Coarsen(d.h.Ratio) })
	default:
		panic(fmt.Sprintf("field: phase %v is not schedule-cacheable", ph))
	}
	if d.sched == nil {
		d.sched = make(map[schedKey]*schedule)
	}
	d.sched[key] = s
	d.builds[ph]++
	return s
}

// buildGhostTransfers enumerates the same-level neighbor → ghost moves
// of one level.
func (d *DataObject) buildGhostTransfers(level int) []transfer {
	lv := d.h.Level(level)
	nbr := lv.Neighbors(d.Ghost)
	var ts []transfer
	for di, dst := range lv.Patches {
		g := dst.Box.Grow(d.Ghost)
		for _, si := range nbr[di] {
			src := lv.Patches[si]
			for _, r := range regionsOf(g.Intersect(src.Box), dst.Box) {
				ts = append(ts, transfer{
					srcID: src.ID, dstID: dst.ID,
					srcOwner: src.Owner, dstOwner: dst.Owner,
					region: r,
				})
			}
		}
	}
	return ts
}

// regionsOf subtracts the interior from an overlap, leaving the pieces
// that are genuinely ghost cells of dst.
func regionsOf(overlap, interior amr.Box) []amr.Box {
	if overlap.Empty() {
		return nil
	}
	return overlap.Subtract(interior)
}

// ExchangeInfo summarizes the cached exchange schedule of one level.
type ExchangeInfo struct {
	// Transfers is the number of overlap regions in the schedule.
	Transfers int
	// SendMsgs / RecvMsgs are coalesced message counts per exchange for
	// this rank.
	SendMsgs, RecvMsgs int
	// SendWords is the per-exchange outbound volume in float64 words.
	SendWords int
	// NeighborRanks is the number of distinct peer ranks.
	NeighborRanks int
	// RemoteTransfers is the number of outbound overlap regions — what
	// the per-exchange send count was before coalescing (one message
	// per region).
	RemoteTransfers int
}

// ExchangeInfo reports the coalescing shape of a level's ghost
// exchange: with the schedule in place, SendMsgs ≤ NeighborRanks
// always holds.
func (d *DataObject) ExchangeInfo(level int) ExchangeInfo {
	s := d.scheduleFor(phaseGhost, level)
	info := ExchangeInfo{
		Transfers:     len(s.ts),
		SendMsgs:      len(s.plan.sends),
		RecvMsgs:      len(s.plan.recvs),
		NeighborRanks: len(s.plan.sends) + len(s.plan.recvs),
	}
	for _, pm := range s.plan.sends {
		info.SendWords += pm.words
		info.RemoteTransfers += len(pm.items)
		for _, rm := range s.plan.recvs {
			if rm.rank == pm.rank {
				info.NeighborRanks--
			}
		}
	}
	return info
}

// Exchange is an in-flight split transfer phase: start posted the
// coalesced sends and receives; Finish waits for every receive, then
// applies local copies and remote unpacks in strict transfer-list
// order (the shadow fill relies on later transfers overwriting earlier
// ones). For the ghost phase, the caller is free to compute on patch
// interiors between the two — ghost exchange writes only ghost cells,
// so interior reads never race the fill, and the virtual-clock model
// credits the compute against message flight time.
type Exchange struct {
	d        *DataObject
	s        *schedule
	src, dst map[int]*PatchData
	active   bool
}

// start posts the coalesced exchange described by s, packing from src,
// and returns its handle, which lives on the schedule and is reused by
// the schedule's next exchange, so steady-state Start/Finish cycles
// allocate nothing. Collectively identical transfer lists on every
// rank are the caller's contract; every rank must Finish before the
// next start of the same schedule.
func (d *DataObject) start(s *schedule, src, dst map[int]*PatchData) *Exchange {
	if s.exch.active {
		panic(fmt.Sprintf("field: %v exchange already in flight on level %d", s.ph, s.level))
	}
	if d.obs != nil {
		defer d.obs.Span("samr", spanName("xfer."+s.ph.String(), s.level))()
	}
	s.exch = Exchange{d: d, s: s, src: src, dst: dst, active: true}
	if d.comm != nil {
		tag := streamTag(s.ph, s.level)
		for k, pm := range s.plan.recvs {
			d.comm.IrecvInto(&s.reqs[k], pm.rank, tag)
		}
		for k, pm := range s.plan.sends {
			buf := s.sendBufs[k][:0]
			for _, idx := range pm.items {
				t := s.ts[idx]
				buf = src[t.srcID].packAppend(t.region, buf)
			}
			s.sendBufs[k] = buf
			d.comm.IsendBuffered(pm.rank, tag, buf)
		}
	}
	return &s.exch
}

// ExchangeGhostsStart posts the coalesced ghost exchange for a level
// and returns without waiting: one IsendBuffered per destination rank
// and one IrecvInto per source rank. Collective; every rank must call
// Start and then Finish before the next Start on the same level.
func (d *DataObject) ExchangeGhostsStart(level int) *Exchange {
	return d.start(d.scheduleFor(phaseGhost, level), d.local, d.local)
}

// Finish waits for every posted receive, in peer-rank order, then
// applies the transfers in list order and returns the payload buffers
// to the substrate's pool. Idempotent.
func (ex *Exchange) Finish() {
	if !ex.active {
		return
	}
	ex.active = false
	d, s := ex.d, ex.s
	if d.obs != nil {
		defer d.obs.Span("samr", spanName("xfer."+s.ph.String()+".finish", s.level))()
	}
	for k := range s.reqs {
		buf, _ := s.reqs[k].Wait()
		if pm := s.plan.recvs[k]; len(buf) != pm.words {
			panic(fmt.Sprintf("field: coalesced %v message from rank %d has %d words, schedule expects %d",
				s.ph, pm.rank, len(buf), pm.words))
		}
		s.bufs[k] = buf
	}
	for i, t := range s.ts {
		switch {
		case d.comm == nil || t.dstOwner == d.rank && t.srcOwner == d.rank:
			if dst, src := ex.dst[t.dstID], ex.src[t.srcID]; dst != nil && src != nil {
				dst.CopyRegion(src, t.region)
			}
		case t.dstOwner == d.rank:
			k, off := s.recvOf[i], s.viewOff[i]
			ex.dst[t.dstID].unpack(t.region, s.bufs[k][off:off+d.words(t)])
		}
	}
	for k, buf := range s.bufs {
		d.comm.Recycle(buf)
		s.bufs[k] = nil
	}
}
