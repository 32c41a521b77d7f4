package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/mpi"
)

// Options configures a Scheduler.
type Options struct {
	// Slots is the rank-slot capacity shared by all running jobs
	// (default 4). A job occupies Ranks slots while running; the
	// patch-parallel work inside every rank still multiplexes over the
	// one process-wide exec pool.
	Slots int
	// Dir is the state root: checkpoints under Dir/ckpt/<prefixKey>,
	// results under Dir/results. "" keeps results in memory and puts
	// checkpoints in a temp directory.
	Dir string
	// Model is the network cost model for the per-job mpi.Worlds; the
	// zero value is mpi.ZeroModel (free communication).
	Model mpi.NetworkModel
	// MaxRetries bounds rank-failure retries per admission (default 2).
	MaxRetries int
	// StoreMax caps the result store's entry count; past it the least
	// recently used result is evicted (memory and disk). 0 = unbounded.
	// Checkpoint lineages are stored separately and never evicted, so
	// warm starts survive result eviction.
	StoreMax int
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// errCanceled marks jobs canceled by request or shutdown.
var errCanceled = errors.New("serve: job canceled")

// Scheduler owns the job table and the slot pool. Admission is
// weighted-fair across priority classes (each class accrues service in
// rank-slots; the nonempty class with the least service per weight goes
// first), preemption is strict-priority (a queued job may evict
// strictly lower classes, stopping them at their next checkpoint
// boundary), and resume is elastic (a preempted job restarts from its
// checkpoint on however many slots are free, down to one).
type Scheduler struct {
	opts  Options
	repo  *cca.Repository
	store *Store
	ckdir string

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job
	queues   [3][]*Job
	served   [3]float64
	free     int
	byKey    map[string]*Job // active (non-terminal) job per full key
	byPrefix map[string]*Job // running/preempting job per prefix key
	reserved *Job            // queued job whose preemption is in flight: only it may be admitted
	arrays   map[string]*Array
	arrOrder []*Array
	nextID   int
	nextArr  int
	closed   bool
	wg       sync.WaitGroup
}

// NewScheduler builds a scheduler over the shared component repository.
func NewScheduler(opts Options) (*Scheduler, error) {
	if opts.Slots == 0 {
		opts.Slots = 4
	}
	if opts.Slots < 1 {
		return nil, fmt.Errorf("serve: bad slot count %d", opts.Slots)
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	}
	resultDir := ""
	ckdir := ""
	if opts.Dir != "" {
		resultDir = filepath.Join(opts.Dir, "results")
		ckdir = filepath.Join(opts.Dir, "ckpt")
	} else {
		d, err := os.MkdirTemp("", "ccaserve-ckpt-")
		if err != nil {
			return nil, err
		}
		ckdir = d
	}
	if err := os.MkdirAll(ckdir, 0o755); err != nil {
		return nil, err
	}
	store, err := NewStore(resultDir, opts.StoreMax)
	if err != nil {
		return nil, err
	}
	return &Scheduler{
		opts:     opts,
		repo:     components.NewRepository(),
		store:    store,
		ckdir:    ckdir,
		jobs:     map[string]*Job{},
		free:     opts.Slots,
		byKey:    map[string]*Job{},
		byPrefix: map[string]*Job{},
		arrays:   map[string]*Array{},
	}, nil
}

// Store exposes the result store (benchmarks and tests inspect it).
func (s *Scheduler) Store() *Store { return s.store }

func (s *Scheduler) prefixDir(j *Job) string {
	return filepath.Join(s.ckdir, j.prefixKey)
}

// Submit validates, dedups, and enqueues a run. The returned job may
// already be terminal (a stored result replayed as a cache hit) or
// waiting (coalesced onto an identical in-flight job). A scenario with
// a sweep block is a job array and must go through SubmitArray.
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if spec.compiled.HasSweep() {
		return nil, fmt.Errorf("serve: scenario declares a sweep (%d points); submit it as a job array", spec.compiled.SweepPoints())
	}
	if spec.Ranks > s.opts.Slots {
		return nil, fmt.Errorf("serve: job wants %d ranks but the server has %d slots", spec.Ranks, s.opts.Slots)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	j := s.submitLocked(spec)
	s.scheduleLocked()
	return j, nil
}

// submitLocked registers and dedups one normalized spec. Caller holds
// the lock and reschedules afterwards.
func (s *Scheduler) submitLocked(spec Spec) *Job {
	s.nextID++
	full, prefix := spec.keys()
	j := &Job{
		ID:          fmt.Sprintf("job-%04d", s.nextID),
		Spec:        spec,
		fullKey:     full,
		prefixKey:   prefix,
		class:       spec.Class(),
		submitted:   time.Now(),
		restoreStep: -1,
		done:        make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)

	// Dedup tier 1: a completed identical run — replay the stored result.
	if r, ok := s.store.Get(j.fullKey); ok {
		j.state = StateDone
		j.cacheHit = true
		j.result = r
		close(j.done)
		return j
	}
	// Dedup tier 2: an identical run is active — coalesce onto it.
	if p := s.byKey[j.fullKey]; p != nil {
		j.state = StateWaiting
		j.primary = p
		p.waiters = append(p.waiters, j)
		return j
	}
	s.byKey[j.fullKey] = j
	// Dedup tier 3: a shared-prefix run left checkpoints — warm-start
	// from the longest prefix at or before this run's final step. The
	// probe is repeated at admission time, where later checkpoints from
	// a lineage sibling that ran in the meantime become visible.
	s.probeRestore(j)
	j.warmStart = j.restore != ""
	j.state = StateQueued
	s.queues[j.class] = append(s.queues[j.class], j)
	return j
}

// Array is a submitted job array: one swept scenario expanded into its
// cartesian product of points, each a full job with its own dedup keys.
type Array struct {
	ID       string
	Scenario string
	jobs     []*Job
}

// ArrayStatus is the wire view of a job array.
type ArrayStatus struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Points   int    `json:"points"`
	// SharedPrefix is true when every point hashes to one prefix key —
	// a duration-knob sweep, whose points chain warm starts down a
	// single checkpoint lineage.
	SharedPrefix bool     `json:"sharedPrefix"`
	Jobs         []Status `json:"jobs"`
}

// SubmitArray expands a swept scenario into one job per point and
// submits them all atomically (points are registered in sweep order,
// last axis fastest). Points sharing a prefix key — a sweep over the
// run-length knob — serialize onto one checkpoint lineage and each
// warm-starts from the longest prefix its predecessors left behind.
func (s *Scheduler) SubmitArray(spec Spec) (*Array, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if !spec.compiled.HasSweep() {
		return nil, fmt.Errorf("serve: scenario declares no sweep; submit it as a single job")
	}
	if spec.Ranks > s.opts.Slots {
		return nil, fmt.Errorf("serve: job wants %d ranks but the server has %d slots", spec.Ranks, s.opts.Slots)
	}
	points := spec.Expand()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.nextArr++
	a := &Array{
		ID:       fmt.Sprintf("array-%04d", s.nextArr),
		Scenario: spec.compiled.Name,
		jobs:     make([]*Job, 0, len(points)),
	}
	for _, p := range points {
		a.jobs = append(a.jobs, s.submitLocked(p))
	}
	s.arrays[a.ID] = a
	s.arrOrder = append(s.arrOrder, a)
	s.scheduleLocked()
	return a, nil
}

// arrayStatusLocked builds the wire view; caller holds the lock.
func (a *Array) statusLocked() ArrayStatus {
	st := ArrayStatus{ID: a.ID, Scenario: a.Scenario, Points: len(a.jobs), SharedPrefix: len(a.jobs) > 0}
	for _, j := range a.jobs {
		if j.prefixKey != a.jobs[0].prefixKey {
			st.SharedPrefix = false
		}
		st.Jobs = append(st.Jobs, j.statusLocked(false))
	}
	return st
}

// ArrayStatus returns one array's status.
func (s *Scheduler) ArrayStatus(id string) (ArrayStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.arrays[id]
	if !ok {
		return ArrayStatus{}, false
	}
	return a.statusLocked(), true
}

// Arrays lists all job arrays in submission order.
func (s *Scheduler) Arrays() []ArrayStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ArrayStatus, 0, len(s.arrOrder))
	for _, a := range s.arrOrder {
		out = append(out, a.statusLocked())
	}
	return out
}

// probeRestore points j at the newest usable checkpoint in its prefix
// lineage, bounded by the job's own final step.
func (s *Scheduler) probeRestore(j *Job) {
	if !j.Spec.Checkpointable() {
		return
	}
	target := j.Spec.TargetStep()
	if path, step, ok := ckpt.LatestValidAtMost(s.prefixDir(j), target); ok {
		j.restore, j.restoreStep = path, step
	}
}

// Get returns a job's status (result included when terminal).
func (s *Scheduler) Get(id string, withResult bool) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.statusLocked(withResult), true
}

// job returns the live job handle (HTTP series scoping needs the hub).
func (s *Scheduler) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Scheduler) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.statusLocked(false))
	}
	return out
}

// Health summarizes the scheduler for /healthz.
type Health struct {
	Slots   int  `json:"slots"`
	Free    int  `json:"free"`
	Jobs    int  `json:"jobs"`
	Running int  `json:"running"`
	Queued  int  `json:"queued"`
	Results int  `json:"results"`
	Closed  bool `json:"closed"`
}

// Health reports current capacity and population.
func (s *Scheduler) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{Slots: s.opts.Slots, Free: s.free, Jobs: len(s.jobs), Closed: s.closed, Results: s.store.Len()}
	for _, j := range s.order {
		switch j.state {
		case StateRunning, StatePreempting:
			h.Running++
		case StateQueued, StatePreempted, StateWaiting:
			h.Queued++
		}
	}
	return h
}

// Cancel stops a job: dequeued if waiting, told to stop at its next
// checkpoint boundary if running (its checkpoints stay behind for
// future warm starts). Non-checkpointable running jobs finish their
// computation but are reported canceled.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("serve: no job %q", id)
	}
	switch j.state {
	case StateQueued, StatePreempted:
		s.dequeue(j)
		s.terminateLocked(j, StateCanceled, errCanceled)
		s.scheduleLocked()
	case StateWaiting:
		p := j.primary
		for i, w := range p.waiters {
			if w == j {
				p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
				break
			}
		}
		j.primary = nil
		j.state = StateCanceled
		j.err = errCanceled
		close(j.done)
	case StateRunning, StatePreempting:
		j.cancelReq = true
		j.gate.Request()
	default:
		return fmt.Errorf("serve: job %q is already %s", id, j.state)
	}
	return nil
}

// dequeue removes j from its class queue (no-op if absent).
func (s *Scheduler) dequeue(j *Job) {
	q := s.queues[j.class]
	for i, x := range q {
		if x == j {
			s.queues[j.class] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// terminateLocked moves j to a terminal state, settles its waiters,
// and releases its dedup claims. Caller holds the lock.
func (s *Scheduler) terminateLocked(j *Job, st State, err error) {
	j.state = st
	j.err = err
	if s.reserved == j {
		s.reserved = nil
	}
	if s.byKey[j.fullKey] == j {
		delete(s.byKey, j.fullKey)
	}
	if j.result != nil {
		// Waiters inherit the result as cache hits.
		for _, w := range j.waiters {
			w.state = StateDone
			w.cacheHit = true
			w.result = j.result
			close(w.done)
		}
		j.waiters = nil
	} else if len(j.waiters) > 0 && s.closed {
		for _, w := range j.waiters {
			w.state = StateCanceled
			w.err = errCanceled
			close(w.done)
		}
		j.waiters = nil
	} else if len(j.waiters) > 0 {
		// Promote the first waiter to primary; the rest re-coalesce.
		p := j.waiters[0]
		p.waiters = append(p.waiters, j.waiters[1:]...)
		for _, w := range p.waiters {
			w.primary = p
		}
		j.waiters = nil
		p.primary = nil
		s.byKey[p.fullKey] = p
		s.probeRestore(p)
		p.warmStart = p.restore != ""
		p.state = StateQueued
		s.queues[p.class] = append(s.queues[p.class], p)
	}
	close(j.done)
}

// pickClass returns the class with the least service per weight among
// classes with queued work, ties to the higher class; -1 when idle.
func (s *Scheduler) pickClass(skip map[int]bool) int {
	best := -1
	var bestShare float64
	for c := 0; c < 3; c++ {
		if skip[c] || len(s.queues[c]) == 0 {
			continue
		}
		share := s.served[c] / classWeights[c]
		if best == -1 || share < bestShare || (share == bestShare && c > best) {
			best, bestShare = c, share
		}
	}
	return best
}

// neededRanks is the allocation j would get if admitted now: cold
// starts insist on the full request; checkpoint resumes shrink to what
// is free (elastic restore makes any rank count equivalent).
func (s *Scheduler) neededRanks(j *Job) (int, bool) {
	if j.restore != "" && j.Spec.Checkpointable() {
		if s.free < 1 {
			return 0, false
		}
		n := j.Spec.Ranks
		if n > s.free {
			n = s.free
		}
		return n, true
	}
	return j.Spec.Ranks, j.Spec.Ranks <= s.free
}

// fits reports whether j can start right now.
func (s *Scheduler) fits(j *Job) (int, bool) {
	if s.byPrefix[j.prefixKey] != nil {
		// One run per checkpoint lineage at a time: two writers in one
		// directory would interleave manifests from different steps.
		return 0, false
	}
	if s.reserved != nil && s.reserved != j {
		// Slots freed by an in-flight preemption are spoken for.
		return 0, false
	}
	return s.neededRanks(j)
}

// scheduleLocked admits jobs until nothing fits, then considers
// preemption for the best queued class. Caller holds the lock.
func (s *Scheduler) scheduleLocked() {
	for {
		admitted := false
		skip := map[int]bool{}
		for {
			c := s.pickClass(skip)
			if c < 0 {
				break
			}
			found := false
			for _, j := range s.queues[c] {
				if n, ok := s.fits(j); ok {
					s.dequeue(j)
					s.admitLocked(j, n)
					admitted, found = true, true
					break
				}
			}
			if !found {
				skip[c] = true // nothing runnable in this class right now
			}
		}
		if !admitted {
			break
		}
	}
	s.maybePreemptLocked()
}

// admitLocked starts j on n ranks. Caller holds the lock.
func (s *Scheduler) admitLocked(j *Job, n int) {
	// Re-probe the checkpoint lineage: a shared-prefix sibling may have
	// finished (and left checkpoints) after this job was submitted —
	// array points swept over the duration knob chain warm starts this
	// way, each admitted point restoring from the previous point's tail.
	prev := j.restoreStep
	s.probeRestore(j)
	if j.restoreStep > prev && j.preemptions == 0 {
		j.warmStart = true
	}
	j.ranks = n
	j.state = StateRunning
	j.gate = &ckpt.Gate{}
	if j.cancelReq {
		// Canceled while queued between preemption and resume.
		j.gate.Request()
	}
	s.free -= n
	s.served[j.class] += float64(n)
	s.byPrefix[j.prefixKey] = j
	if s.reserved == j {
		s.reserved = nil
	}
	s.wg.Add(1)
	go s.run(j)
}

// maybePreemptLocked checks whether the best queued job that cannot be
// admitted should evict strictly lower classes. Victims are signaled
// to stop at their next checkpoint boundary; the queued job holds a
// reservation on the freed slots until it is admitted. Caller holds
// the lock.
func (s *Scheduler) maybePreemptLocked() {
	if s.reserved != nil {
		return // one preemption in flight at a time
	}
	for c := ClassHigh; c > ClassBatch; c-- {
		for _, j := range s.queues[c] {
			if s.byPrefix[j.prefixKey] != nil {
				continue
			}
			need := j.Spec.Ranks // after eviction slots are plentiful; take the full request
			avail := s.free
			var victims []*Job
			for _, r := range s.order {
				if r.state != StateRunning || r.class >= c || !r.Spec.Checkpointable() {
					continue
				}
				victims = append(victims, r)
			}
			// Lowest class first, largest allocation first within a class:
			// evict the cheapest work and as few jobs as possible.
			for i := 0; i < len(victims); i++ {
				for k := i + 1; k < len(victims); k++ {
					a, b := victims[i], victims[k]
					if b.class < a.class || (b.class == a.class && b.ranks > a.ranks) {
						victims[i], victims[k] = b, a
					}
				}
			}
			var chosen []*Job
			for _, v := range victims {
				if avail >= need {
					break
				}
				avail += v.ranks
				chosen = append(chosen, v)
			}
			if avail < need || len(chosen) == 0 {
				continue // eviction would not make room; leave everyone alone
			}
			for _, v := range chosen {
				v.state = StatePreempting
				v.gate.Request()
			}
			s.reserved = j
			return
		}
	}
}

// Close stops the scheduler: queued jobs are canceled, running jobs
// are stopped at their next checkpoint boundary (their checkpoints
// remain for a future server), and the call waits for all runners to
// land. Safe to call once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, j := range s.order {
		switch j.state {
		case StateQueued, StatePreempted:
			s.dequeue(j)
			s.terminateLocked(j, StateCanceled, errCanceled)
		case StateWaiting:
			// Settled when its primary terminates below (or already was).
		case StateRunning, StatePreempting:
			j.cancelReq = true
			j.gate.Request()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}
