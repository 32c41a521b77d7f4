package ckpt

import (
	"errors"
	"sync/atomic"
)

// ErrPreempted is returned (wrapped) by a checkpoint component whose
// preemption gate fired: the run saved a final durable checkpoint at
// the step boundary where it noticed the request and then stopped.
// Preemption is not a failure — Supervise propagates it instead of
// retrying — and the caller resumes the job later from LatestValid,
// possibly on a different rank count (the elastic restore path).
var ErrPreempted = errors.New("ckpt: run preempted at checkpoint")

// Gate is the asynchronous stop request a scheduler hands to a running
// job. Request may be called from any goroutine at any time; the
// checkpoint component polls the gate once per driver step (through a
// collective decision, so every rank of an SCMD cohort stops at the
// same step), saves, and unwinds with ErrPreempted. A nil *Gate never
// fires, so unscheduled runs pay only a nil check.
type Gate struct {
	flag atomic.Bool
}

// Request asks the run to stop at its next step boundary. Idempotent.
func (g *Gate) Request() {
	if g != nil {
		g.flag.Store(true)
	}
}

// Requested reports whether a stop has been requested.
func (g *Gate) Requested() bool {
	return g != nil && g.flag.Load()
}
