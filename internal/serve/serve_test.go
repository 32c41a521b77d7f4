package serve

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"ccahydro/internal/telemetry"
)

// The serve acceptance suite drives the scheduler the way the ISSUE
// acceptance scenario reads: concurrent jobs over one shared pool,
// strict-priority preemption at a live checkpoint boundary, elastic
// resume on fewer ranks, and content-addressed dedup asserted through
// live step counts (a cache hit computes zero steps).
//
// Cross-rank-count series comparisons stick to the P-invariant keys:
// flame "cells" (replicated per-rank census) and shock "t"/"dt" (min
// reductions). The shock circulation is an FP sum whose grouping
// depends on the rank layout, and flame "stepSeconds" is wall-clock —
// neither is comparable bit-for-bit across allocations.

func flameSpec(steps, ranks int, priority string) Spec {
	return Spec{
		Problem:  "flame",
		Ranks:    ranks,
		Priority: priority,
		Params: map[string]map[string]string{
			"grace":  {"nx": "16", "ny": "16", "maxLevels": "2"},
			"driver": {"steps": strconv.Itoa(steps), "dt": "1e-7", "regridEvery": "2"},
		},
	}
}

func shockSpec(maxSteps, ranks int, priority string) Spec {
	return Spec{
		Problem:  "shock",
		Ranks:    ranks,
		Priority: priority,
		Params: map[string]map[string]string{
			"grace":  {"nx": "32", "ny": "16", "lx": "2.0", "ly": "1.0", "maxLevels": "2"},
			"driver": {"tEnd": "1.0", "maxSteps": strconv.Itoa(maxSteps), "regridEvery": "2"},
		},
	}
}

func ignSpec(tEnd string) Spec {
	return Spec{
		Problem: "ignition",
		Params: map[string]map[string]string{
			"driver": {"tEnd": tEnd, "nOut": "5"},
		},
	}
}

func newTestSched(t *testing.T, slots int) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Options{Slots: slots, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitTerminal(t *testing.T, s *Scheduler, id string) Status {
	t.Helper()
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("no job %q", id)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", id)
	}
	st, _ := s.Get(id, true)
	return st
}

// waitLiveSteps blocks until the job's current admission has begun at
// least n driver steps — the hook the tests use to time submissions
// against a genuinely mid-run victim.
func waitLiveSteps(t *testing.T, s *Scheduler, id string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		j := s.jobs[id]
		var hub *telemetry.Hub
		ranks := 0
		if j != nil {
			hub, ranks = j.hub, j.ranks
		}
		s.mu.Unlock()
		// Each of the job's ranks emits one step event per driver step.
		if hub != nil && ranks > 0 && hub.EventCounts()[telemetry.EvStep] >= n*uint64(ranks) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %d live steps", id, n)
}

func sameSeries(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: lengths differ: want %d, got %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: sample %d differs: want %v, got %v", label, i, want[i], got[i])
		}
	}
}

func TestSpecKeys(t *testing.T) {
	a := shockSpec(6, 2, "normal")
	b := shockSpec(6, 4, "high") // scheduling knobs must not change the key
	for _, sp := range []*Spec{&a, &b} {
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if a.FullKey() != b.FullKey() {
		t.Fatal("rank/priority changed the content key")
	}

	short, long := shockSpec(3, 1, ""), shockSpec(6, 1, "")
	short.Normalize()
	long.Normalize()
	if short.FullKey() == long.FullKey() {
		t.Fatal("run length did not change the full key")
	}
	if short.PrefixKey() != long.PrefixKey() {
		t.Fatal("runs differing only in maxSteps must share a prefix key")
	}

	// tEnd clamps the final dt, so it must split the prefix lineage.
	other := shockSpec(6, 1, "")
	other.Params["driver"]["tEnd"] = "2.0"
	other.Normalize()
	if other.PrefixKey() == long.PrefixKey() {
		t.Fatal("tEnd must be part of the shock prefix key")
	}

	// A physics knob splits both keys.
	hot := flameSpec(4, 1, "")
	cold := flameSpec(4, 1, "")
	hot.Params["driver"]["dt"] = "2e-7"
	hot.Normalize()
	cold.Normalize()
	if hot.FullKey() == cold.FullKey() || hot.PrefixKey() == cold.PrefixKey() {
		t.Fatal("dt must change both keys")
	}

	// The explicit default and the omitted default hash identically.
	imp := flameSpec(4, 1, "")
	delete(imp.Params["driver"], "steps")
	imp.Normalize()
	exp := flameSpec(5, 1, "")
	exp.Normalize()
	if imp.FullKey() != exp.FullKey() {
		t.Fatal("omitted duration param must hash like its default")
	}
}

// TestBuiltinSpecValidation: a built-in spec's knobs are checked
// against the class schema at submission. The flux swap takes any class
// that fits the slot (HLLCFlux included) and refuses one without the
// flux port; unknown instances, unknown keys and out-of-range values
// are refused before anything runs.
func TestBuiltinSpecValidation(t *testing.T) {
	s := newTestSched(t, 1)
	hllc := shockSpec(2, 1, "normal")
	hllc.Flux = "HLLCFlux"
	j, err := s.Submit(hllc)
	if err != nil {
		t.Fatalf("HLLCFlux swap rejected: %v", err)
	}
	if st := waitTerminal(t, s, j.ID); st.State != StateDone {
		t.Fatalf("HLLC shock job: %+v", st)
	}

	for name, mutate := range map[string]func(*Spec){
		"class without a flux port": func(sp *Spec) { sp.Flux = "States" },
		"unknown instance":          func(sp *Spec) { sp.Params["ghost"] = map[string]string{"nx": "8"} },
		"unknown key":               func(sp *Spec) { sp.Params["grace"]["color"] = "red" },
		"out-of-range value":        func(sp *Spec) { sp.Params["grace"]["nx"] = "2" },
	} {
		sp := shockSpec(2, 1, "normal")
		mutate(&sp)
		if _, err := s.Submit(sp); err == nil {
			t.Errorf("%s: admitted", name)
		}
	}
	// The retired chemistry-engine switch is an unknown key like any other.
	fl := flameSpec(2, 1, "normal")
	fl.Params["chem"] = map[string]string{`kernels`: "off"}
	if _, err := s.Submit(fl); err == nil || !strings.Contains(err.Error(), "has no parameter") {
		t.Errorf("chem.kernels: err = %v, want an unknown-key rejection", err)
	}
}

// TestDefaultIgnitionJob: a parameterless ignition job runs the
// embedded scenario's own settings to completion.
func TestDefaultIgnitionJob(t *testing.T) {
	s := newTestSched(t, 1)
	j, err := s.Submit(Spec{Problem: "ignition"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, j.ID); st.State != StateDone {
		t.Fatalf("default ignition job ended %s: %s", st.State, st.Error)
	}
}

// TestDedupCacheHit: an identical resubmission is served from the
// result store — zero live steps, bit-identical series, and the CVODE
// counters of the original run.
func TestDedupCacheHit(t *testing.T) {
	s := newTestSched(t, 2)
	j1, err := s.Submit(ignSpec("1e-4"))
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, s, j1.ID)
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("first run: %+v", st1)
	}
	if st1.StepsRun == 0 {
		t.Fatal("first run reported zero live steps — the dedup assertion below would be vacuous")
	}
	if len(st1.Result.Counters) == 0 {
		t.Fatal("first run collected no solver counters")
	}

	j2, err := s.Submit(ignSpec("1e-4"))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, s, j2.ID)
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("duplicate was not a cache hit: %+v", st2)
	}
	if st2.StepsRun != 0 {
		t.Fatalf("cache hit computed %d live steps, want 0", st2.StepsRun)
	}
	sameSeries(t, "cache-hit T series", st1.Result.Series["T"], st2.Result.Series["T"])

	// A different tEnd is a different run.
	j3, err := s.Submit(ignSpec("2e-4"))
	if err != nil {
		t.Fatal(err)
	}
	if st3 := waitTerminal(t, s, j3.ID); st3.CacheHit {
		t.Fatal("different tEnd must not hit the cache")
	}
}

// TestCoalesceInFlight: an identical submission while the first is
// still running attaches as a waiter and inherits the result without
// computing anything.
func TestCoalesceInFlight(t *testing.T) {
	s := newTestSched(t, 2)
	j1, err := s.Submit(shockSpec(6, 2, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	waitLiveSteps(t, s, j1.ID, 1)
	j2, err := s.Submit(shockSpec(6, 2, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Get(j2.ID, false); st.State != StateWaiting {
		t.Fatalf("duplicate of an in-flight run is %s, want waiting", st.State)
	}
	st1 := waitTerminal(t, s, j1.ID)
	st2 := waitTerminal(t, s, j2.ID)
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("states: %s / %s", st1.State, st2.State)
	}
	if !st2.CacheHit || st2.StepsRun != 0 {
		t.Fatalf("waiter recomputed: %+v", st2)
	}
	sameSeries(t, "coalesced t series", st1.Result.Series["t"], st2.Result.Series["t"])
}

// TestPrefixWarmStart: a longer run whose spec differs only in length
// restarts from the shorter run's last checkpoint instead of step 0,
// and still matches the cold full-length run bit-for-bit.
func TestPrefixWarmStart(t *testing.T) {
	ref := newTestSched(t, 1)
	r, err := ref.Submit(flameSpec(4, 1, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, ref, r.ID)

	s := newTestSched(t, 1)
	short, err := s.Submit(flameSpec(2, 1, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, short.ID); st.StepsRun != 2 {
		t.Fatalf("short run computed %d steps, want 2", st.StepsRun)
	}

	long, err := s.Submit(flameSpec(4, 1, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, long.ID)
	if !st.WarmStart || st.RestoreStep != 1 {
		t.Fatalf("long run did not warm-start from the shared prefix: %+v", st)
	}
	if st.StepsRun != 2 {
		t.Fatalf("warm start computed %d live steps, want 2 (steps 2 and 3)", st.StepsRun)
	}
	sameSeries(t, "warm-started cells series", refSt.Result.Series["cells"], st.Result.Series["cells"])
	if got := len(st.Result.Series["cells"]); got != 4 {
		t.Fatalf("warm-started run reports %d steps of history, want 4", got)
	}
}

// TestAcceptancePreemptResume is the ISSUE end-to-end scenario: a
// batch shock run holding the whole pool is preempted mid-run at a
// checkpoint boundary by a high-priority flame, resumes on the two
// ranks the flame left free — a different rank count than it started
// with — and its final series is bit-for-bit the uninterrupted solo
// run's.
func TestAcceptancePreemptResume(t *testing.T) {
	// Solo reference on a private scheduler.
	ref := newTestSched(t, 4)
	r, err := ref.Submit(shockSpec(12, 4, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, ref, r.ID)
	if refSt.State != StateDone {
		t.Fatalf("reference: %+v", refSt)
	}

	s := newTestSched(t, 4)
	shock, err := s.Submit(shockSpec(12, 4, "batch"))
	if err != nil {
		t.Fatal(err)
	}
	waitLiveSteps(t, s, shock.ID, 2)
	flame, err := s.Submit(flameSpec(6, 2, "high"))
	if err != nil {
		t.Fatal(err)
	}

	flameSt := waitTerminal(t, s, flame.ID)
	if flameSt.State != StateDone {
		t.Fatalf("flame: %+v", flameSt)
	}
	shockSt := waitTerminal(t, s, shock.ID)
	if shockSt.State != StateDone {
		t.Fatalf("shock: %+v", shockSt)
	}

	if shockSt.Preemptions < 1 {
		t.Fatal("the batch shock run was never preempted")
	}
	if shockSt.RanksAlloc != 2 {
		t.Fatalf("shock resumed on %d ranks, want 2 (flame held the other 2)", shockSt.RanksAlloc)
	}
	if shockSt.RestoreStep < 0 {
		t.Fatal("shock resume did not record its checkpoint restore point")
	}
	// The preemption checkpoint sits at the exact stop step, so across
	// both admissions every step is computed exactly once.
	if shockSt.StepsRun != 12 {
		t.Fatalf("preempted+resumed shock computed %d live steps, want exactly 12", shockSt.StepsRun)
	}

	sameSeries(t, "preempted shock t series", refSt.Result.Series["t"], shockSt.Result.Series["t"])
	sameSeries(t, "preempted shock dt series", refSt.Result.Series["dt"], shockSt.Result.Series["dt"])
}

// TestCancelKeepsCheckpoints: canceling a running job stops it at its
// next checkpoint; a resubmission warm-starts from the canceled run's
// lineage and completes to the reference result.
func TestCancelKeepsCheckpoints(t *testing.T) {
	s := newTestSched(t, 2)
	j1, err := s.Submit(shockSpec(6, 2, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	waitLiveSteps(t, s, j1.ID, 1)
	if err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, s, j1.ID)
	if st1.State != StateCanceled {
		t.Fatalf("canceled job ended %s", st1.State)
	}

	j2, err := s.Submit(shockSpec(6, 2, "normal"))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, s, j2.ID)
	if st2.State != StateDone {
		t.Fatalf("resubmission: %+v", st2)
	}
	if st1.Result != nil {
		// The cancel landed after the computation had already finished;
		// the resubmission must then be a plain cache hit.
		if !st2.CacheHit {
			t.Fatal("resubmission of a canceled-but-complete run missed the cache")
		}
	} else if !st2.WarmStart {
		t.Fatal("resubmission ignored the canceled run's checkpoints")
	}
	if got := len(st2.Result.Series["t"]); got != 6 {
		t.Fatalf("resubmission holds %d steps of history, want 6", got)
	}
}
