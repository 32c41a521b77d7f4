package serve

import (
	"errors"
	"sync"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
	"ccahydro/internal/telemetry"
)

// run executes one admission of j: a supervised attempt chain for
// checkpointable problems (rank failures retry from the last durable
// checkpoint, exactly as ccarun does), a single shot otherwise. It is
// the only writer of j's result and terminal state after admission.
func (s *Scheduler) run(j *Job) {
	defer s.wg.Done()

	// Snapshot the admission decision under the lock; build the per-
	// admission hub so /series followers see this attempt's stream.
	s.mu.Lock()
	spec := j.Spec
	key := j.fullKey
	ranks := j.ranks
	restore := j.restore
	gate := j.gate
	hub := telemetry.NewHub(ranks, nil)
	hub.SetPhase("running")
	j.hub = hub
	dir := s.prefixDir(j)
	s.mu.Unlock()

	var result *Result
	var runErr error
	if spec.Checkpointable() {
		attempt := 0
		runErr = ckpt.SuperviseNotify(dir, s.opts.MaxRetries, hub, func(r string) error {
			attempt++
			hub.StartAttempt(attempt)
			if attempt == 1 {
				// The supervisor always passes "" for the first attempt;
				// the scheduler's restore decision (warm start or resume
				// after preemption) takes its place.
				r = restore
			}
			res, err := s.attempt(spec, key, ranks, hub, dir, r, gate)
			if err == nil {
				result = res
			}
			return err
		})
	} else {
		hub.StartAttempt(1)
		res, err := s.attempt(spec, key, ranks, hub, "", "", nil)
		if err == nil {
			result = res
		}
		runErr = err
	}

	// End the stream: followers drain everything recorded and hang up.
	// Preemption is not a failure — the next admission opens a new hub.
	if runErr != nil && !errors.Is(runErr, ckpt.ErrPreempted) {
		hub.SetPhase("failed")
	} else {
		hub.SetPhase("done")
	}
	// Every rank emits one step event per driver step; normalizing by
	// the allocation size yields driver steps actually computed.
	s.finish(j, result, runErr, int(hub.EventCounts()[telemetry.EvStep])/ranks)
}

// attempt runs the assembly once on a fresh world of the given size.
// The returned result carries the job's full key, rank 0's statistics
// series and the rank-summed CVODE counters.
func (s *Scheduler) attempt(spec Spec, key string, ranks int, hub *telemetry.Hub, dir, restore string, gate *ckpt.Gate) (*Result, error) {
	var mu sync.Mutex
	var series map[string][]float64
	counters := map[string]float64{}
	w := mpi.NewWorld(ranks, s.opts.Model)
	res := cca.RunSCMDOn(w, s.repo, func(f *cca.Framework, comm *mpi.Comm) error {
		if err := spec.compiled.Build(f); err != nil {
			return err
		}
		if dir != "" {
			if err := core.WireCheckpointOpts(f, core.CheckpointOptions{
				Every:   spec.CkptEvery,
				Dir:     dir,
				Restore: restore,
				Preempt: gate,
			}); err != nil {
				return err
			}
		}
		core.AttachTelemetry(f, hub.Rank(comm.Rank()), comm)
		if err := f.Go(spec.compiled.RunInstance(), "go"); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, name := range f.Instances() {
			// Counters come from the CVODE class only: the implicit
			// integrator proxies the same numbers, and counting both
			// would double them.
			if cls, err := f.ClassOf(name); err != nil || cls != "CvodeComponent" {
				continue
			}
			comp, err := f.Lookup(name)
			if err != nil {
				continue
			}
			for k, v := range comp.(*components.CvodeComponent).Counters() {
				counters[k] += v
			}
		}
		if comm.Rank() == 0 {
			// Find the statistics sink by class, not by the fixed "stats"
			// name the built-ins happen to use — scenarios name instances
			// freely.
			for _, name := range f.Instances() {
				if cls, err := f.ClassOf(name); err != nil || cls != "StatisticsComponent" {
					continue
				}
				comp, err := f.Lookup(name)
				if err != nil {
					continue
				}
				if sc, ok := comp.(*components.StatisticsComponent); ok {
					m := map[string][]float64{}
					for _, k := range sc.Keys() {
						m[k] = sc.Get(k)
					}
					series = m
					break
				}
			}
		}
		return nil
	})
	if err := res.Err(); err != nil {
		return nil, err
	}
	r := &Result{Problem: spec.ProblemLabel(), Key: key, Series: series, Counters: counters}
	r.Steps = len(series[spec.compiled.ProgressKey()])
	return r, nil
}

// finish settles j after run: store-and-complete, preempt-and-requeue,
// cancel, or fail — then reschedules freed slots.
func (s *Scheduler) finish(j *Job, result *Result, runErr error, liveSteps int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free += j.ranks
	if s.byPrefix[j.prefixKey] == j {
		delete(s.byPrefix, j.prefixKey)
	}
	j.stepsRun += liveSteps
	switch {
	case runErr == nil:
		j.result = result
		// Persistence is best-effort; the in-memory copy already serves
		// this process's cache hits.
		_ = s.store.Put(j.fullKey, result)
		if j.cancelReq {
			// Cancel landed after the computation finished (or the
			// problem was not preemptible): report canceled, keep the
			// result for the store and any waiters.
			s.terminateLocked(j, StateCanceled, errCanceled)
		} else {
			s.terminateLocked(j, StateDone, nil)
		}
	case errors.Is(runErr, ckpt.ErrPreempted) && !j.cancelReq && !s.closed:
		j.state = StatePreempted
		j.preemptions++
		s.probeRestore(j)
		// Head of its class queue: it already paid for its position.
		s.queues[j.class] = append([]*Job{j}, s.queues[j.class]...)
	case errors.Is(runErr, ckpt.ErrPreempted):
		// Stopped because of Cancel or Close; checkpoints stay behind
		// so a resubmission warm-starts.
		s.terminateLocked(j, StateCanceled, errCanceled)
	default:
		s.terminateLocked(j, StateFailed, runErr)
	}
	if !s.closed {
		s.scheduleLocked()
	}
}
