package mpi

import (
	"errors"
	"sync/atomic"
	"testing"
)

// A killed rank must poison the world: peers blocked in receives and
// barriers unwind instead of deadlocking, and Failure reports the fault.
func TestFaultKillUnblocksPeers(t *testing.T) {
	w := NewWorld(4, ZeroModel)
	w.InjectFault(Fault{Rank: 2, Kind: FaultKill, AtStep: 3, AtSend: 0})
	var completed atomic.Int32
	RunOn(w, func(c *Comm) {
		for step := 0; step < 10; step++ {
			c.NoteStep(step)
			// Ring exchange: every rank sends right, receives from left.
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			c.Send(right, 7, []float64{float64(step)})
			c.Recv(left, 7)
			c.Barrier()
		}
		completed.Add(1)
	})
	if completed.Load() != 0 {
		t.Fatalf("%d ranks completed a run that should have aborted", completed.Load())
	}
	err := w.Failure()
	if err == nil {
		t.Fatal("Failure() = nil after injected kill")
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("failure %v does not match ErrRankFailed", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Rank != 2 {
		t.Fatalf("failure %v does not identify rank 2", err)
	}
}

// The send-ordinal trigger must fire on the Nth point-to-point send.
func TestFaultKillAtSend(t *testing.T) {
	w := NewWorld(2, ZeroModel)
	w.InjectFault(Fault{Rank: 0, Kind: FaultKill, AtStep: -1, AtSend: 3})
	var sendsDone atomic.Int32
	RunOn(w, func(c *Comm) {
		if c.Rank() != 0 {
			// Peer just drains whatever arrives; it unwinds via the
			// poisoned-world gate in Recv.
			for i := 0; ; i++ {
				c.Recv(0, i)
			}
		}
		for i := 0; i < 10; i++ {
			c.Send(1, i, []float64{1})
			sendsDone.Add(1)
		}
	})
	if got := sendsDone.Load(); got != 2 {
		t.Fatalf("rank 0 completed %d sends before dying, want 2", got)
	}
	if err := w.Failure(); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Failure() = %v, want ErrRankFailed", err)
	}
}

// A stall only delays the rank's virtual clock; the run completes.
func TestFaultStallCompletes(t *testing.T) {
	w := NewWorld(2, ZeroModel)
	w.InjectFault(Fault{Rank: 1, Kind: FaultStall, AtStep: 1, AtSend: 0, StallSeconds: 2.5})
	var completed atomic.Int32
	RunOn(w, func(c *Comm) {
		for step := 0; step < 3; step++ {
			c.NoteStep(step)
			c.Barrier()
		}
		completed.Add(1)
	})
	if completed.Load() != 2 {
		t.Fatalf("only %d/2 ranks completed", completed.Load())
	}
	if err := w.Failure(); err != nil {
		t.Fatalf("stall must not poison the world: %v", err)
	}
	if got := w.MaxVirtualTime(); got < 2.5 {
		t.Fatalf("virtual time %g does not include the 2.5 s stall", got)
	}
}

// Nonblocking receives blocked in Wait must also unwind on abort.
func TestFaultKillUnblocksWait(t *testing.T) {
	w := NewWorld(2, ZeroModel)
	w.InjectFault(Fault{Rank: 0, Kind: FaultKill, AtStep: 1, AtSend: 0})
	var completed atomic.Int32
	RunOn(w, func(c *Comm) {
		if c.Rank() == 1 {
			var req Request
			c.IrecvInto(&req, 0, 5).Wait() // rank 0 never sends: must unwind, not hang
			completed.Add(1)
			return
		}
		c.NoteStep(0)
		c.NoteStep(1) // dies here
		completed.Add(1)
	})
	if completed.Load() != 0 {
		t.Fatal("a rank completed past the injected failure")
	}
	if err := w.Failure(); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Failure() = %v, want ErrRankFailed", err)
	}
}

// Restore hooks: the virtual clock and endpoint stats must be
// reinstatable from a checkpointed snapshot.
func TestRestoreClockAndStats(t *testing.T) {
	Run(1, ZeroModel, func(c *Comm) {
		c.AdvanceVirtualTime(12.25)
		if got := c.VirtualTime(); got != 12.25 {
			t.Errorf("VirtualTime = %g, want 12.25", got)
		}
		// advanceTo never moves backwards.
		c.AdvanceVirtualTime(1.0)
		if got := c.VirtualTime(); got != 12.25 {
			t.Errorf("VirtualTime moved backwards to %g", got)
		}
		want := CommStats{Sends: 3, Recvs: 2, WordsSent: 40, CommSeconds: 1.5, HiddenSeconds: 0.25}
		c.RestoreStats(want)
		if got := c.Stats(); got != want {
			t.Errorf("Stats = %+v, want %+v", got, want)
		}
	})
}
