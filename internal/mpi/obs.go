package mpi

import "ccahydro/internal/obs"

// Tracer integration: with a tracer attached, every point-to-point
// message becomes a flight slice on the virtual-cluster trace row plus
// a flow arrow from the sender's post to the receiver's completion —
// the timeline view of the clock model in this package's doc comment.

// SetTracer attaches an event tracer to this endpoint. Events are
// emitted on the virtual-clock track of this endpoint's rank.
// nil (the default) disables emission.
func (c *Comm) SetTracer(t *obs.Tracer) { c.tracer = t }

// Tracer returns the attached tracer, or nil.
func (c *Comm) Tracer() *obs.Tracer { return c.tracer }

// trafficCat classifies a message tag for trace categories: ghost
// exchange streams use the large negative stream-tag space, collectives
// the small negative space, and user point-to-point the non-negative.
func trafficCat(tag int) string {
	switch {
	case tag <= -100000:
		return "halo"
	case tag < 0:
		return "coll"
	}
	return "p2p"
}

// traceSend stamps a flow id on a message about to be queued and emits
// its flight slice and flow start. postT is the sender's virtual clock
// at the post; cost the modeled transfer time. Returns the flow id (0
// when tracing is off).
func (c *Comm) traceSend(m *message, dst int, postT, cost float64) {
	if c.tracer == nil {
		return
	}
	id := c.tracer.NextFlowID()
	m.flow = id
	c.tracer.VirtualSend(id, trafficCat(m.tag), c.rank, dst, postT, cost, len(m.data))
}

// traceRecv closes the flow arrow on the receiver's clock track at the
// completion time atSec.
func (c *Comm) traceRecv(m message, atSec float64) {
	if c.tracer == nil || m.flow == 0 {
		return
	}
	c.tracer.VirtualRecv(m.flow, trafficCat(m.tag), c.rank, atSec, len(m.data))
}
