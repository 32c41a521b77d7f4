package obs

import (
	"sync/atomic"
	"time"
)

// Port-call sampling. The interceptor proxies record every call by
// default, which is costly on µs-scale wires (the benchmark's
// obs.trace_overhead_frac measures it per workload); production runs
// can thin the stream per wire with a sampling rate and/or a latency
// floor. Dropped observations are counted in port_call_dropped_total so
// histogram counts stay honest: true call volume = recorded + dropped.

// portCallPolicy is the session-wide filter; nil means record all.
type portCallPolicy struct {
	every uint64        // keep 1 of every N calls per wire (0/1 = all)
	floor time.Duration // drop calls faster than this (0 = none)
}

// PortCall is one wire's recording endpoint: the latency histogram
// behind the session's sampling policy. Methods are nil-safe.
type PortCall struct {
	h   *Histogram
	o   *Obs
	seq atomic.Uint64 // per-wire call ordinal for the 1-in-N filter
}

// PortCall returns the recording endpoint of one (instance, port,
// method) triple.
func (o *Obs) PortCall(instance, port, method string) *PortCall {
	if o == nil {
		return nil
	}
	return &PortCall{h: o.PortHistogram(instance, port, method), o: o}
}

// SetPortCallSampling installs the session's port-call filter: keep 1
// of every `every` calls per wire (<=1 keeps all) and drop calls
// shorter than floor (0 keeps all). Applies to calls observed after it
// is set; safe to call concurrently with recording.
func (o *Obs) SetPortCallSampling(every int, floor time.Duration) {
	if o == nil {
		return
	}
	if every <= 1 && floor <= 0 {
		o.callPol.Store(nil)
		return
	}
	e := uint64(1)
	if every > 1 {
		e = uint64(every)
	}
	o.callPol.Store(&portCallPolicy{every: e, floor: floor})
}

// PortCallDropped is the number of port calls the sampling policy
// discarded in this session.
func (o *Obs) PortCallDropped() uint64 {
	if o == nil {
		return 0
	}
	return o.droppedCounter().Value()
}

// droppedCounter caches the drop counter so the discard path never
// takes a registry shard lock. Registry.Counter is idempotent per name,
// so a racing double-store resolves to the same instrument.
func (o *Obs) droppedCounter() *Counter {
	if c := o.dropped.Load(); c != nil {
		return c
	}
	c := o.reg.Counter("port_call_dropped_total")
	o.dropped.Store(c)
	return c
}

// ObserveSince records one call's latency measured from t0, subject to
// the session policy. This is the single line every proxy method pays.
func (pc *PortCall) ObserveSince(t0 time.Time) {
	if pc == nil {
		return
	}
	d := time.Since(t0)
	if pol := pc.o.callPol.Load(); pol != nil {
		if d < pol.floor || (pol.every > 1 && pc.seq.Add(1)%pol.every != 1) {
			pc.o.droppedCounter().Inc()
			return
		}
	}
	pc.h.ObserveNs(int64(d))
}
