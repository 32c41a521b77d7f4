package mpi

import (
	"math"
	"testing"
)

// recvNow posts a receive and waits on it at once.
func recvNow(c *Comm, src, tag int) ([]float64, Status) {
	var r Request
	return c.IrecvInto(&r, src, tag).Wait()
}

func TestIsendIrecvBasic(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.IsendBuffered(1, 7, []float64{1, 2, 3})
		case 1:
			var req Request
			data, st := c.IrecvInto(&req, 0, 7).Wait()
			if st.Source != 0 || st.Tag != 7 || st.Count != 3 {
				t.Errorf("status = %+v", st)
			}
			for i, want := range []float64{1, 2, 3} {
				if data[i] != want {
					t.Errorf("data[%d] = %v, want %v", i, data[i], want)
				}
			}
			// Wait is idempotent.
			again, _ := req.Wait()
			if &again[0] != &data[0] {
				t.Error("second Wait returned different payload")
			}
		}
	})
}

func TestIsendCopiesBuffer(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.IsendBuffered(1, 0, buf)
			buf[0] = -1
		} else {
			data, _ := recvNow(c, 0, 0)
			if data[0] != 42 {
				t.Errorf("receiver saw mutated buffer: %v", data[0])
			}
		}
	})
}

// Requests posted for several tags complete whatever order the messages
// arrived in, as a persistent schedule's receive set does.
func TestWaitallCompletesOutOfOrderTags(t *testing.T) {
	Run(2, ZeroModel, func(c *Comm) {
		if c.Rank() == 0 {
			c.IsendBuffered(1, 2, []float64{2})
			c.IsendBuffered(1, 1, []float64{1})
		} else {
			var r1, r2 Request
			c.IrecvInto(&r1, 0, 1)
			c.IrecvInto(&r2, 0, 2)
			d1, _ := r1.Wait() // tag 1 was sent second
			d2, _ := r2.Wait()
			if d1[0] != 1 || d2[0] != 2 {
				t.Errorf("tag matching failed: got %v, %v", d1[0], d2[0])
			}
		}
	})
}

// TestOverlapHidesLatency is the accounting contract of the nonblocking
// pair: compute performed between IrecvInto and Wait hides message
// flight time, so the receive completes at max(post + alpha + beta*n,
// wait time).
func TestOverlapHidesLatency(t *testing.T) {
	model := NetworkModel{Latency: 1.0, InvBandwidth: 0}
	// Case 1: compute (10s) exceeds flight time (1s) — fully hidden.
	w := Run(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.IsendBuffered(1, 0, []float64{1})
		} else {
			var req Request
			c.IrecvInto(&req, 0, 0)
			c.Charge(10)
			req.Wait()
			if vt := c.VirtualTime(); math.Abs(vt-10) > 1e-12 {
				t.Errorf("receiver clock = %v, want 10 (latency fully hidden)", vt)
			}
			st := c.Stats()
			if st.CommSeconds != 0 {
				t.Errorf("visible comm = %v, want 0", st.CommSeconds)
			}
			if math.Abs(st.HiddenSeconds-1) > 1e-12 {
				t.Errorf("hidden = %v, want 1", st.HiddenSeconds)
			}
		}
	})
	if got := w.MaxVirtualTime(); math.Abs(got-10) > 1e-12 {
		t.Errorf("virtual time = %v, want 10", got)
	}

	// Case 2: compute (0.25s) shorter than flight (1s) — partial hide.
	w = Run(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.IsendBuffered(1, 0, []float64{1})
		} else {
			var req Request
			c.IrecvInto(&req, 0, 0)
			c.Charge(0.25)
			req.Wait()
			if vt := c.VirtualTime(); math.Abs(vt-1) > 1e-12 {
				t.Errorf("receiver clock = %v, want 1 (flight dominates)", vt)
			}
			st := c.Stats()
			if math.Abs(st.CommSeconds-0.75) > 1e-12 {
				t.Errorf("visible comm = %v, want 0.75", st.CommSeconds)
			}
			if math.Abs(st.HiddenSeconds-0.25) > 1e-12 {
				t.Errorf("hidden = %v, want 0.25", st.HiddenSeconds)
			}
		}
	})
	if got := w.MaxVirtualTime(); math.Abs(got-1) > 1e-12 {
		t.Errorf("virtual time = %v, want 1", got)
	}
}

// TestIsendDoesNotAdvanceSenderClock: the sender's transfer cost runs on
// the NIC, concurrent with compute — unlike a blocking Send.
func TestIsendDoesNotAdvanceSenderClock(t *testing.T) {
	model := NetworkModel{Latency: 1.0, InvBandwidth: 0}
	Run(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.IsendBuffered(1, 0, []float64{1})
			if vt := c.VirtualTime(); vt != 0 {
				t.Errorf("sender clock = %v after IsendBuffered, want 0", vt)
			}
			st := c.Stats()
			if math.Abs(st.HiddenSeconds-1) > 1e-12 {
				t.Errorf("sender hidden = %v, want 1 (cost vs blocking Send)", st.HiddenSeconds)
			}
		} else {
			recvNow(c, 0, 0)
		}
	})
}

func TestBlockingPathStats(t *testing.T) {
	model := NetworkModel{Latency: 2.0, InvBandwidth: 0}
	Run(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			st := c.Stats()
			if st.Sends != 1 || st.WordsSent != 1 {
				t.Errorf("sends=%d words=%d", st.Sends, st.WordsSent)
			}
			if math.Abs(st.CommSeconds-2) > 1e-12 {
				t.Errorf("blocking send visible comm = %v, want 2", st.CommSeconds)
			}
		} else {
			c.Recv(0, 0)
			st := c.Stats()
			// Sender finished at t=2; idle receiver stalls the full 2s.
			if math.Abs(st.CommSeconds-2) > 1e-12 {
				t.Errorf("blocking recv stall = %v, want 2", st.CommSeconds)
			}
			if st.HiddenSeconds != 0 {
				t.Errorf("blocking recv hidden = %v, want 0", st.HiddenSeconds)
			}
		}
	})
}
