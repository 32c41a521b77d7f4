package field

import (
	"fmt"
	"sort"

	"ccahydro/internal/amr"
	"ccahydro/internal/mpi"
)

// Communication schedules: the transfer lists driving ghost exchange and
// coarse–fine moves are grouped by communicating peer so that all
// regions bound for one destination rank travel in a single coalesced
// message per exchange phase. Message count per exchange drops from
// #overlap-regions to ≤ #neighbor-ranks, amortizing the per-message
// alpha cost exactly as production SAMR frameworks do. The ghost-
// exchange schedule is additionally cached per (level, hierarchy
// generation), so the region enumeration runs once per regrid instead
// of on every exchange.

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

// words is the exact on-wire size of one transfer. Transfer regions are
// always contained in both endpoints' storage boxes (the enumeration
// guarantees it), so sender and receiver compute identical counts from
// replicated metadata alone.
func (d *DataObject) words(t transfer) int {
	return d.NComp * t.region.NumCells()
}

// buildPlan groups ts by peer rank for this endpoint.
func (d *DataObject) buildPlan(ts []transfer) commPlan {
	sendIdx := make(map[int]int)
	recvIdx := make(map[int]int)
	var plan commPlan
	for i, t := range ts {
		w := d.words(t)
		switch {
		case t.srcOwner == d.rank && t.dstOwner != d.rank:
			k, ok := sendIdx[t.dstOwner]
			if !ok {
				k = len(plan.sends)
				sendIdx[t.dstOwner] = k
				plan.sends = append(plan.sends, peerMsg{rank: t.dstOwner})
			}
			plan.sends[k].items = append(plan.sends[k].items, i)
			plan.sends[k].words += w
		case t.dstOwner == d.rank && t.srcOwner != d.rank:
			k, ok := recvIdx[t.srcOwner]
			if !ok {
				k = len(plan.recvs)
				recvIdx[t.srcOwner] = k
				plan.recvs = append(plan.recvs, peerMsg{rank: t.srcOwner})
			}
			plan.recvs[k].items = append(plan.recvs[k].items, i)
			plan.recvs[k].words += w
		}
	}
	sort.Slice(plan.sends, func(a, b int) bool { return plan.sends[a].rank < plan.sends[b].rank })
	sort.Slice(plan.recvs, func(a, b int) bool { return plan.recvs[a].rank < plan.recvs[b].rank })
	return plan
}

// packPeerInto serializes every transfer of one coalesced message, in
// list order, into a caller-owned buffer (reset to length zero first),
// so persistent schedules repack without allocating.
func (d *DataObject) packPeerInto(buf []float64, pm peerMsg, ts []transfer, getSrc func(id int) *PatchData) []float64 {
	buf = buf[:0]
	for _, idx := range pm.items {
		t := ts[idx]
		buf = getSrc(t.srcID).packAppend(t.region, buf)
	}
	return buf
}

// ghostSchedule is the cached exchange plan of one level: valid while
// the level object and hierarchy generation are unchanged.
type ghostSchedule struct {
	lv   *amr.Level
	gen  int
	ts   []transfer
	plan commPlan
	// nbrRanks is the distinct peer set (union of send and recv peers).
	nbrRanks []int

	// Persistent exchange state (the MPI persistent-communication
	// pattern): message sizes are fixed for the life of the schedule, so
	// pack buffers and receive requests are allocated once and reused by
	// every exchange. Together with the substrate's payload recycling
	// this makes steady-state ghost exchange allocation-free.
	sendBufs [][]float64   // one pack buffer per plan.sends entry
	reqs     []mpi.Request // one reusable request per plan.recvs entry
	exch     GhostExchange // the in-flight handle Start returns
}

// ghostScheduleFor returns the cached schedule for a level, rebuilding
// it only after a regrid (generation change) or hierarchy swap.
func (d *DataObject) ghostScheduleFor(level int) *ghostSchedule {
	lv := d.h.Level(level)
	gen := d.h.Generation()
	if s, ok := d.sched[level]; ok && s.lv == lv && s.gen == gen {
		return s
	}
	s := &ghostSchedule{lv: lv, gen: gen}
	nbr := lv.Neighbors(d.Ghost)
	for di, dst := range lv.Patches {
		g := dst.Box.Grow(d.Ghost)
		for _, si := range nbr[di] {
			src := lv.Patches[si]
			for _, r := range regionsOf(g.Intersect(src.Box), dst.Box) {
				s.ts = append(s.ts, transfer{
					srcID: src.ID, dstID: dst.ID,
					srcOwner: src.Owner, dstOwner: dst.Owner,
					region: r,
				})
			}
		}
	}
	s.plan = d.buildPlan(s.ts)
	peers := make(map[int]bool)
	for _, pm := range s.plan.sends {
		peers[pm.rank] = true
	}
	for _, pm := range s.plan.recvs {
		peers[pm.rank] = true
	}
	for r := range peers {
		s.nbrRanks = append(s.nbrRanks, r)
	}
	sort.Ints(s.nbrRanks)
	if d.sched == nil {
		d.sched = make(map[int]*ghostSchedule)
	}
	d.sched[level] = s
	d.scheduleBuilds++
	return s
}

// ScheduleBuilds counts ghost-schedule constructions (cache misses);
// tests assert the cache only invalidates across regrids.
func (d *DataObject) ScheduleBuilds() int { return d.scheduleBuilds }

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

// ExchangeInfo reports the coalescing shape of a level's exchange: with
// the schedule in place, SendMsgs ≤ NeighborRanks always holds.
func (d *DataObject) ExchangeInfo(level int) ExchangeInfo {
	s := d.ghostScheduleFor(level)
	info := ExchangeInfo{
		Transfers:     len(s.ts),
		SendMsgs:      len(s.plan.sends),
		RecvMsgs:      len(s.plan.recvs),
		NeighborRanks: len(s.nbrRanks),
	}
	for _, pm := range s.plan.sends {
		info.SendWords += pm.words
		info.RemoteTransfers += len(pm.items)
	}
	return info
}

// GhostExchange is an in-flight split ghost exchange: Start posted the
// sends and receives and performed rank-local copies; Finish drains the
// receives and unpacks. Between the two, the caller is free to compute
// on patch interiors — ghost exchange writes only ghost cells, so
// interior reads never race the fill, and the virtual-clock model
// credits the compute against message flight time.
type GhostExchange struct {
	d      *DataObject
	sched  *ghostSchedule
	active bool
}

// ExchangeGhostsStart posts the coalesced exchange for a level and
// returns without waiting: one IsendBuffered per destination rank, one
// IrecvInto per source rank, and all rank-local region copies done
// inline. The returned handle lives on the schedule and is reused by
// the next exchange of the same level, so steady-state Start/Finish
// cycles allocate nothing. Collective; every rank must call Start and
// then Finish before the next Start on the same level.
func (d *DataObject) ExchangeGhostsStart(level int) *GhostExchange {
	s := d.ghostScheduleFor(level)
	if s.exch.active {
		panic("field: ghost exchange already in flight on this level")
	}
	if d.obs != nil {
		defer d.obs.Span("samr", spanName("ghost.start", level))()
	}
	s.exch = GhostExchange{d: d, sched: s, active: true}
	if d.comm != nil {
		tag := streamTag(phaseGhost, level)
		if s.reqs == nil && len(s.plan.recvs) > 0 {
			s.reqs = make([]mpi.Request, len(s.plan.recvs))
		}
		for k, pm := range s.plan.recvs {
			d.comm.IrecvInto(&s.reqs[k], pm.rank, tag)
		}
		if s.sendBufs == nil && len(s.plan.sends) > 0 {
			s.sendBufs = make([][]float64, len(s.plan.sends))
			for k, pm := range s.plan.sends {
				s.sendBufs[k] = make([]float64, 0, pm.words)
			}
		}
		for k, pm := range s.plan.sends {
			s.sendBufs[k] = d.packPeerInto(s.sendBufs[k], pm, s.ts, d.Local)
			d.comm.IsendBuffered(pm.rank, tag, s.sendBufs[k])
		}
	}
	for _, t := range s.ts {
		if t.dstOwner == d.rank && t.srcOwner == d.rank {
			if dst, src := d.local[t.dstID], d.local[t.srcID]; dst != nil && src != nil {
				dst.CopyRegion(src, t.region)
			}
		} else if d.comm == nil {
			d.local[t.dstID].CopyRegion(d.local[t.srcID], t.region)
		}
	}
	return &s.exch
}

// Finish waits for the posted receives, unpacks them, and returns the
// payload buffers to the substrate's pool. Idempotent.
func (ex *GhostExchange) Finish() {
	if !ex.active {
		return
	}
	ex.active = false
	d := ex.d
	s := ex.sched
	if d.obs != nil {
		defer d.obs.Span("samr", "ghost.finish")()
	}
	for k := range s.reqs {
		buf, _ := s.reqs[k].Wait()
		pm := s.plan.recvs[k]
		off := 0
		for _, idx := range pm.items {
			t := s.ts[idx]
			w := d.words(t)
			d.local[t.dstID].unpack(t.region, buf[off:off+w])
			off += w
		}
		if off != len(buf) {
			panic(fmt.Sprintf("field: ghost message from rank %d has %d words, schedule expects %d",
				pm.rank, len(buf), off))
		}
		d.comm.Recycle(buf)
	}
}
