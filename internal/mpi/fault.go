package mpi

import (
	"errors"
	"fmt"
)

// Fault injection: deterministic, seed-free rank failures for
// exercising checkpoint/restart recovery. A fault is configured on the
// World before the job launches and fires at an exact, reproducible
// point of the execution — a chosen driver step (reported through
// Comm.NoteStep) or a chosen point-to-point send — on a chosen rank.
//
// A *kill* poisons the whole world: the failing rank unwinds, every
// rank blocked in a receive, wait, or barrier wakes up and unwinds too,
// and Run returns with World.Failure() reporting the fault. The caller
// (a supervisor loop) can then roll back to the last durable checkpoint
// and relaunch. A *stall* only delays the rank's virtual clock — the
// run completes, and the hiccup is visible in the virtual-time report.

// FaultKind selects what the injected fault does when it triggers.
type FaultKind int

const (
	// FaultKill terminates the rank and aborts the world.
	FaultKill FaultKind = iota
	// FaultStall charges StallSeconds to the rank's virtual clock.
	FaultStall
)

func (k FaultKind) String() string {
	if k == FaultStall {
		return "stall"
	}
	return "kill"
}

// Fault describes one injected failure. Exactly one trigger applies:
// AtStep >= 0 fires when the rank reports that driver step through
// NoteStep; otherwise AtSend >= 1 fires on the rank's Nth
// point-to-point send (blocking or nonblocking, 1-based).
type Fault struct {
	Rank int
	Kind FaultKind
	// AtStep triggers at the start of this driver step (0-based);
	// negative disables the step trigger.
	AtStep int
	// AtSend triggers on the rank's Nth send (1-based); <= 0 disables.
	AtSend int
	// StallSeconds is the virtual-clock delay of a FaultStall.
	StallSeconds float64
}

// ErrRankFailed is the sentinel matched by errors.Is on every error
// produced by an injected (or future real) rank failure.
var ErrRankFailed = errors.New("mpi: rank failed")

// FaultError reports which rank failed and where. It matches
// ErrRankFailed under errors.Is.
type FaultError struct {
	Rank int
	At   string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed at %s", e.Rank, e.At)
}

// Unwrap ties FaultError to the ErrRankFailed sentinel.
func (e *FaultError) Unwrap() error { return ErrRankFailed }

// abortSignal is the panic payload used to unwind a rank's goroutine
// when the world is poisoned. Run recovers exactly this type; any other
// panic keeps crashing the process.
type abortSignal struct{ err error }

// IsAbortPanic reports whether a recovered panic value is the
// substrate's own unwind signal. Outer recover handlers (a crash
// flight recorder, say) use it to tell a controlled world abort —
// which the rank runner handles itself — from a genuine crash.
func IsAbortPanic(rec any) bool {
	_, ok := rec.(*abortSignal)
	return ok
}

// EventSink receives structured notifications of substrate-level
// events: fault injections firing and rank failures. The live
// telemetry plane implements it; the substrate itself stays
// observability-agnostic. step is -1 when the event is not tied to a
// driver step the substrate knows about. Implementations must be
// safe to call from the failing rank's goroutine mid-unwind.
type EventSink interface {
	Emit(kind string, step int, detail string)
}

// SetEvents attaches an event sink to this rank's communicator. Call
// before the run starts; a nil-handle-free assignment keeps the
// detached path a single pointer test.
func (c *Comm) SetEvents(sink EventSink) {
	c.events = sink
}

// InjectFault arms one fault on the world. Call before launching rank
// bodies; at most one fault is armed at a time and it fires once.
func (w *World) InjectFault(f Fault) {
	if f.Rank < 0 || f.Rank >= w.size {
		panic(fmt.Sprintf("mpi: fault rank %d out of range (size %d)", f.Rank, w.size))
	}
	w.fault.mu.Lock()
	w.fault.armed = &f
	w.fault.fired = false
	w.fault.mu.Unlock()
}

// Abort poisons the world with err: every blocked collective or receive
// wakes and unwinds, and Failure reports err. The first abort wins.
func (w *World) Abort(err error) {
	w.fault.mu.Lock()
	if w.fault.failure == nil {
		w.fault.failure = err
	}
	w.fault.mu.Unlock()
	// Wake every parked rank: mailbox and barrier waiters re-check the
	// failure flag.
	w.mu.Lock()
	for _, boxes := range w.mail {
		for _, b := range boxes {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
	}
	w.mu.Unlock()
	w.barrier.mu.Lock()
	w.barrier.cond.Broadcast()
	w.barrier.mu.Unlock()
}

// Failure returns the error the world was aborted with, or nil.
func (w *World) Failure() error {
	w.fault.mu.Lock()
	defer w.fault.mu.Unlock()
	return w.fault.failure
}

// failGate panics with the abort signal when the world is poisoned.
// Blocking operations call it before parking and after every wakeup.
func (w *World) failGate() {
	w.fault.mu.Lock()
	err := w.fault.failure
	w.fault.mu.Unlock()
	if err != nil {
		panic(&abortSignal{err: err})
	}
}

// takeFault claims the armed fault for (rank, at) if its trigger
// matches; the fault fires at most once per world.
func (w *World) takeFault(rank int, match func(*Fault) bool) *Fault {
	w.fault.mu.Lock()
	defer w.fault.mu.Unlock()
	f := w.fault.armed
	if f == nil || w.fault.fired || f.Rank != rank || !match(f) {
		return nil
	}
	w.fault.fired = true
	return f
}

// trigger executes a claimed fault on the calling rank.
func (c *Comm) trigger(f *Fault, at string) {
	if c.events != nil {
		c.events.Emit("fault.inject", -1, fmt.Sprintf("%s at %s", f.Kind, at))
	}
	if f.Kind == FaultStall {
		c.world.clocks[c.rank].add(f.StallSeconds)
		return
	}
	err := &FaultError{Rank: c.rank, At: at}
	c.world.Abort(err)
	panic(&abortSignal{err: err})
}

// NoteStep reports that this rank is entering driver step `step`. It is
// the step-granularity fault trigger point and a cheap fail-fast gate:
// a rank that survived into a poisoned world unwinds here instead of
// computing a step nobody will ever consume.
func (c *Comm) NoteStep(step int) {
	c.world.failGate()
	if f := c.world.takeFault(c.rank, func(f *Fault) bool { return f.AtStep >= 0 && f.AtStep == step }); f != nil {
		c.trigger(f, fmt.Sprintf("step %d", step))
	}
}

// noteSend is the send-granularity trigger, called with the 1-based
// send ordinal about to be issued.
func (c *Comm) noteSend(n int) {
	if f := c.world.takeFault(c.rank, func(f *Fault) bool { return f.AtSend > 0 && f.AtSend == n }); f != nil {
		c.trigger(f, fmt.Sprintf("send %d", n))
	}
}

// AdvanceVirtualTime moves this rank's virtual clock forward to at
// least t — the restart hook that reinstates a checkpointed clock.
func (c *Comm) AdvanceVirtualTime(t float64) {
	c.world.clocks[c.rank].advanceTo(t)
}

// RestoreStats reinstates checkpointed endpoint traffic counters, so
// comm statistics accumulated before a restart survive it.
func (c *Comm) RestoreStats(s CommStats) {
	c.sends = s.Sends
	c.recvs = s.Recvs
	c.wordsSent = s.WordsSent
	c.commSeconds = s.CommSeconds
	c.hiddenSeconds = s.HiddenSeconds
}
