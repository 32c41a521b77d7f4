package mpi

import "fmt"

// The buffered nonblocking pair (MPI_Bsend-style send, MPI_Recv_init /
// MPI_Start-style receive, MPI_Wait) and the virtual-clock accounting
// that makes compute/communication overlap visible to the
// simulated-cluster experiments.
//
// The clock model: a blocking Send charges alpha + n*beta to the
// sender's clock inline (the rank sits in the library while the message
// goes out). IsendBuffered instead stamps the message's network
// completion time at now + alpha + n*beta and returns without advancing
// the sender's clock — the transfer proceeds "on the NIC" concurrently
// with whatever the rank computes next. The receiver's Wait advances its
// clock to max(its own time, the message's completion time), so a
// message completes at max(post + alpha + n*beta, wait time): compute
// performed between IrecvInto and Wait hides message latency, and only
// the remaining stall is ever paid.

// Request is a posted receive, filled in by IrecvInto and completed by
// Wait when a matching message is consumed. Persistent communication
// schedules own one Request per receive and repost it every exchange.
type Request struct {
	c        *Comm
	src, tag int
	postTime float64 // receiver's virtual clock when the receive was posted

	done   bool
	data   []float64
	status Status
}

// IsendBuffered posts a buffered nonblocking send. The message's
// network completion time is stamped at now + Cost(n), but the sender's
// clock does not advance: the transfer overlaps with subsequent
// compute. The send is complete on return (MPI_Bsend semantics), so
// there is no request to wait on and a steady-state exchange stays
// allocation-free.
func (c *Comm) IsendBuffered(dst int, tag int, data []float64) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: isend to invalid rank %d (size %d)", dst, c.Size()))
	}
	c.world.failGate()
	c.noteSend(c.sends + 1)
	cost := c.world.model.Cost(len(data))
	// Relative to a blocking Send, the whole transfer cost is hidden
	// behind the sender's ongoing compute.
	c.hiddenSeconds += cost
	c.post(dst, tag, data, c.world.clocks[c.rank].now()+cost, cost)
}

// IrecvInto posts a nonblocking receive for (src, tag) into a
// caller-owned Request value, so persistent communication schedules can
// repost their fixed receive set every exchange without allocating (the
// MPI_Recv_init / MPI_Start pattern). The previous contents of r are
// discarded. Compute charged between the post and the Wait counts
// toward hiding the message's flight time.
func (c *Comm) IrecvInto(r *Request, src int, tag int) *Request {
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("mpi: irecv from invalid rank %d (size %d)", src, c.Size()))
	}
	*r = Request{c: c, src: src, tag: tag, postTime: c.world.clocks[c.rank].now()}
	return r
}

// Wait blocks until the request completes and returns the payload.
// Further calls return the same payload and status.
func (r *Request) Wait() ([]float64, Status) {
	if r.done {
		return r.data, r.status
	}
	m := r.c.match(r.src, r.tag)
	r.c.finishRecvAt(m, r.postTime)
	r.done = true
	r.data = m.data
	r.status = m.status()
	return r.data, r.status
}

// finishRecvAt completes a receive posted at postTime: the receiver's
// clock advances to the message's network completion time, the residual
// stall is charged as visible comm time, and the flight-time slice the
// receiver covered with its own compute since the post is credited as
// hidden.
func (c *Comm) finishRecvAt(m message, postTime float64) {
	cl := c.world.clocks[c.rank]
	now := cl.now()
	stall := m.sendTime - now
	if stall < 0 {
		stall = 0
	}
	covered := m.sendTime
	if now < covered {
		covered = now
	}
	covered -= postTime
	if covered < 0 {
		covered = 0
	}
	c.commSeconds += stall
	c.hiddenSeconds += covered
	cl.advanceTo(m.sendTime)
	c.recvs++
	c.traceRecv(m, cl.now())
}

// CommStats is the traffic summary of one endpoint.
type CommStats struct {
	// Sends and Recvs count point-to-point messages.
	Sends, Recvs int
	// WordsSent is the total float64 words sent point-to-point.
	WordsSent int
	// CommSeconds is virtual time the rank visibly spent on
	// communication: inline blocking-send charges plus receive stalls.
	CommSeconds float64
	// HiddenSeconds is virtual transfer time that never reached the
	// rank's clock: IsendBuffered costs running behind compute plus the
	// message-flight slices covered between IrecvInto and Wait.
	HiddenSeconds float64
}

// Stats returns this endpoint's accumulated traffic statistics.
func (c *Comm) Stats() CommStats {
	return CommStats{
		Sends:         c.sends,
		Recvs:         c.recvs,
		WordsSent:     c.wordsSent,
		CommSeconds:   c.commSeconds,
		HiddenSeconds: c.hiddenSeconds,
	}
}
