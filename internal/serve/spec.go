// Package serve is the multi-tenant simulation-as-a-service plane over
// the assembly machinery: a Scheduler that owns runs as jobs —
// priority-classed, weighted-fair, preemptible at checkpoint
// boundaries, elastically resumable on a different rank count — and an
// HTTP server exposing submit/status/cancel plus per-job telemetry
// scopes (streamed NDJSON series). All jobs multiplex their
// patch-parallel loops over the one shared internal/exec epoch pool;
// rank parallelism stays per-job in each job's private mpi.World.
//
// Every job runs a compiled scenario, validated at submission: a
// built-in (Problem "ignition"/"flame"/"shock") is that problem's
// embedded scenario file with the spec's Flux and Params folded in; a
// scenario spec carries its own source text. A scenario with a sweep
// block is a job array (POST /arrays): one spec expanding into the
// cartesian product of its axes, every point a full job of its own.
//
// Content-addressed run dedup extends the FNV-1a fingerprint chain
// (per-patch field fingerprints, checkpoint content IDs) up to whole
// runs: a Spec hashes to a full key (every assembly-visible knob) and a
// prefix key (the same minus the run-length knob). Identical
// resubmissions are served from the result store or coalesced onto the
// in-flight twin; near-identical ones (same prefix, different length)
// restart from the longest shared checkpoint prefix — array points
// swept over the duration knob chain warm starts down one lineage.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"ccahydro/internal/core"
	"ccahydro/internal/scenario"
)

// Priority classes, lowest to highest. Weighted fairness shares slots
// across classes in proportion to their weights; strictly higher
// classes may additionally preempt strictly lower ones.
const (
	ClassBatch  = 0
	ClassNormal = 1
	ClassHigh   = 2
)

// classWeights drive the weighted-fair admission order.
var classWeights = [3]float64{1, 2, 4}

var classNames = map[string]int{"batch": ClassBatch, "normal": ClassNormal, "high": ClassHigh}

// Spec is one run request as submitted over the wire.
type Spec struct {
	// Problem selects a built-in assembly: "ignition", "flame", or
	// "shock". Empty when Scenario is set.
	Problem string `json:"problem,omitempty"`
	// Flux swaps the class of the built-in's "flux" instance — the shock
	// problem's Riemann solver: GodunovFlux (the default), EFMFlux, or
	// HLLCFlux. The class schema decides which classes fit the slot.
	Flux string `json:"flux,omitempty"`
	// Params are instance parameters, instance -> key -> value, set over
	// the built-in scenario's own before instantiation (the Ccaffeine
	// "parameter" verb) and checked against the class schema.
	Params map[string]map[string]string `json:"params,omitempty"`
	// Scenario is declarative scenario source text (see
	// internal/scenario), mutually exclusive with Problem/Flux/Params.
	// It is compiled and fully validated at submission; a sweep block
	// makes the spec a job array and is accepted only via SubmitArray.
	Scenario string `json:"scenario,omitempty"`
	// Ranks is the requested SPMD rank count (default 1). A resumed
	// job may be restarted on fewer ranks when capacity is tight; the
	// elastic restore path keeps the results bit-identical.
	Ranks int `json:"ranks,omitempty"`
	// Priority is "batch", "normal" (default), or "high".
	Priority string `json:"priority,omitempty"`
	// CkptEvery is the checkpoint cadence in driver steps (default 1).
	// It bounds preemption latency: a job can only stop at a step
	// boundary, and only checkpointable problems can stop early at all.
	CkptEvery int `json:"ckptEvery,omitempty"`

	// compiled is the validated scenario the job runs (set by
	// Normalize, or directly for expanded sweep points).
	compiled *scenario.Compiled
}

// Normalize validates the spec and fills defaults in place (rank count,
// priority, cadence, and the duration parameter, which must be explicit
// so content hashing and prefix probing agree on the run length).
func (sp *Spec) Normalize() error {
	if sp.compiled == nil {
		c, err := sp.compile()
		if err != nil {
			return err
		}
		sp.compiled = c
	}
	if sp.Ranks == 0 {
		sp.Ranks = 1
	}
	if sp.Ranks < 0 {
		return fmt.Errorf("serve: bad rank count %d", sp.Ranks)
	}
	if sp.Priority == "" {
		sp.Priority = "normal"
	}
	if _, ok := classNames[sp.Priority]; !ok {
		return fmt.Errorf("serve: unknown priority %q (want batch, normal, or high)", sp.Priority)
	}
	if sp.CkptEvery == 0 {
		sp.CkptEvery = 1
	}
	if sp.CkptEvery < 0 {
		return fmt.Errorf("serve: bad checkpoint cadence %d", sp.CkptEvery)
	}
	if dk := sp.compiled.DurationParam(); dk != "" {
		inst := sp.compiled.RunInstance()
		v, ok := sp.compiled.Param(inst, dk)
		if !ok {
			v, _ = scenario.DefaultParam(sp.compiled.RunClass, dk)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return fmt.Errorf("serve: bad %s %s %q", inst, dk, v)
		}
		sp.compiled.SetParam(inst, dk, strconv.Itoa(n))
	}
	return nil
}

// compile builds the scenario the spec runs: the submitted source text,
// or a private copy of the embedded built-in with Flux swapped in and
// Params set over it, every value checked against the class schema.
func (sp *Spec) compile() (*scenario.Compiled, error) {
	if sp.Scenario != "" {
		if sp.Problem != "" || sp.Flux != "" || sp.Params != nil {
			return nil, fmt.Errorf("serve: scenario spec must not also set problem/flux/params")
		}
		c, err := scenario.Compile("scenario", []byte(sp.Scenario))
		if err != nil {
			return nil, fmt.Errorf("serve: bad scenario:\n%w", err)
		}
		return c, nil
	}
	c, err := core.Builtin(sp.Problem, sp.Flux)
	if err != nil {
		return nil, err
	}
	c = c.Clone()
	for inst, kv := range sp.Params {
		for k, v := range kv {
			if err := c.Override(inst, k, v); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// Class returns the numeric priority class.
func (sp *Spec) Class() int { return classNames[sp.Priority] }

// ProblemLabel is the display name of the assembly: the built-in
// problem, or "scenario:<name>".
func (sp *Spec) ProblemLabel() string {
	if sp.Problem != "" {
		return sp.Problem
	}
	return "scenario:" + sp.compiled.Name
}

// TargetStep is the last 0-based driver step the run executes, or -1
// when the problem has no step-indexed checkpoints. A prefix restart
// must restore at or before this step — a later checkpoint describes
// state this (shorter) run never reaches.
func (sp *Spec) TargetStep() int {
	dk := sp.compiled.DurationParam()
	if dk == "" {
		return -1
	}
	v, _ := sp.compiled.Param(sp.compiled.RunInstance(), dk)
	n, _ := strconv.Atoi(v)
	return n - 1
}

// Checkpointable reports whether this job can be preempted and resumed.
func (sp *Spec) Checkpointable() bool { return sp.compiled.Checkpointable() }

// Expand materializes a job array's points as independent specs. Each
// point inherits the base spec's scheduling knobs; its Scenario text is
// re-rendered so statuses show the concrete point.
func (sp *Spec) Expand() []Spec {
	points := sp.compiled.Expand()
	out := make([]Spec, len(points))
	for i, p := range points {
		out[i] = Spec{
			Scenario:  p.Render(),
			Ranks:     sp.Ranks,
			Priority:  sp.Priority,
			CkptEvery: sp.CkptEvery,
			compiled:  p,
		}
	}
	return out
}

// keys hashes the spec's canonical lines — the compiled scenario's, so
// a built-in and the same assembly submitted as text share them — in
// one pass into both dedup keys. The full key covers every knob that
// can change the computed result, including the run length. Rank
// count, priority, and checkpoint cadence are deliberately excluded —
// results are rank-count-invariant (the elastic-restore matrix proves
// it) and scheduling knobs don't change the physics. The prefix key
// leaves out the run-length knob: jobs sharing it walk the same
// trajectory for as long as both run, so they share one checkpoint
// lineage and a shorter/longer resubmission restarts from the longest
// shared checkpoint prefix. The hash is FNV-1a 64, the family of the
// per-patch field fingerprints and checkpoint content IDs.
func (sp *Spec) keys() (full, prefix string) {
	var drop string
	if dk := sp.compiled.DurationParam(); dk != "" {
		drop = "param/" + sp.compiled.RunInstance() + "/" + dk + "="
	}
	f, p := uint64(fnvOffset64), uint64(fnvOffset64)
	for _, l := range sp.compiled.CanonicalLines() {
		f = fnvLine(f, l)
		if drop == "" || !strings.HasPrefix(l, drop) {
			p = fnvLine(p, l)
		}
	}
	return fmt.Sprintf("%016x", f), fmt.Sprintf("%016x", p)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvLine folds one line and its newline terminator into an FNV-1a 64
// state.
func fnvLine(h uint64, line string) uint64 {
	for i := 0; i < len(line); i++ {
		h = (h ^ uint64(line[i])) * fnvPrime64
	}
	return (h ^ '\n') * fnvPrime64
}

// FullKey is the content address of the complete run (see keys).
func (sp *Spec) FullKey() string {
	full, _ := sp.keys()
	return full
}

// PrefixKey is FullKey minus the run-length knob (see keys).
func (sp *Spec) PrefixKey() string {
	_, prefix := sp.keys()
	return prefix
}
