package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccahydro/internal/serve"
)

// mixSizes is the composition of the served job mix.
type mixSizes struct {
	ignition, flame, shock int // distinct jobs per problem
	resubmit               int // exact resubmissions of finished jobs
	twins                  int // resubmissions issued back-to-back with their original
	extFlame, extShock     int // duration extensions of finished jobs
	flameN, shockNx        int
	shockSteps             int
}

var fullMix = mixSizes{
	ignition: 24, flame: 48, shock: 16,
	resubmit: 40, twins: 8, extFlame: 12, extShock: 4,
	flameN: 12, shockNx: 32, shockSteps: 10,
}

// warmMix is the warm-up repetition of serve_mix: every job class at
// full grid sizes, an eighth of the jobs.
var warmMix = mixSizes{
	ignition: 4, flame: 6, shock: 2,
	resubmit: 4, twins: 1, extFlame: 2, extShock: 1,
	flameN: 12, shockNx: 32, shockSteps: 10,
}

var toyMix = mixSizes{
	ignition: 2, flame: 2, shock: 1,
	resubmit: 1, twins: 1, extFlame: 1, extShock: 0,
	flameN: 8, shockNx: 16, shockSteps: 3,
}

const (
	flameExtend = 1 // extra steps of a flame extension
	shockExtend = 3 // extra steps of a shock extension
)

func (m mixSizes) jobs() int {
	return m.ignition + m.flame + m.shock + m.resubmit + m.twins + m.extFlame + m.extShock
}

// mixJob is one entry of the seeded list. The program receives Spec
// only; the seed never leaves the generator.
type mixJob struct {
	Problem string // ignition, flame, shock
	Kind    string // distinct, resubmit, extend
	Spec    serve.Spec
	Steps   int // driver steps the spec asks for (0 for ignition)
	// After is the index of the job that must be done before this one
	// is submitted (-1: none). It always points backwards.
	After int
	// Twin submits the spec a second time back-to-back, before the
	// first has had time to finish; it counts as a job of its own.
	Twin bool

	key float64 // sort position while the list is being built
}

func flameSpec(m mixSizes, k, steps int) serve.Spec {
	// The hot-spot temperature distinguishes the jobs: each gets its
	// own prefix key, so no two distinct jobs share a checkpoint lineage
	// by accident, and the work per job barely moves.
	return serve.Spec{Problem: "flame", Params: map[string]map[string]string{
		"grace":  {"nx": strconv.Itoa(m.flameN), "ny": strconv.Itoa(m.flameN), "maxLevels": "2"},
		"ic":     {"Thot": strconv.Itoa(1800 + k)},
		"driver": {"steps": strconv.Itoa(steps), "dt": "1e-7", "regridEvery": "2"},
	}}
}

func shockSpec(m mixSizes, k, steps int) serve.Spec {
	return serve.Spec{Problem: "shock", Params: map[string]map[string]string{
		"grace":  {"nx": strconv.Itoa(m.shockNx), "ny": strconv.Itoa(m.shockNx / 2), "lx": "2.0", "ly": "1.0", "maxLevels": "2"},
		"gas":    {"mach": fmt.Sprintf("%.2f", 1.5+0.01*float64(k))},
		"driver": {"maxSteps": strconv.Itoa(steps), "tEnd": "10", "regridEvery": "5"},
	}}
}

func ignitionSpec(k int) serve.Spec {
	return serve.Spec{Problem: "ignition", Params: map[string]map[string]string{
		"driver": {"tEnd": fmt.Sprintf("%de-6", 100+k), "nOut": "5"},
	}}
}

// generateMix builds the job list from the seed. The multiset of
// distinct jobs is fixed, so the work in a mix does not depend on the
// seed; the seed decides the order, which finished jobs are
// resubmitted or extended, and which originals get a twin.
func generateMix(m mixSizes, seed int64) []mixJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []mixJob
	distinct := func(problem string, spec serve.Spec, steps int) {
		jobs = append(jobs, mixJob{Problem: problem, Kind: "distinct", Spec: spec, Steps: steps, After: -1, key: rng.Float64()})
	}
	for k := 0; k < m.ignition; k++ {
		distinct("ignition", ignitionSpec(k), 0)
	}
	for k := 0; k < m.flame; k++ {
		steps := 2 + k%2
		distinct("flame", flameSpec(m, k, steps), steps)
	}
	for k := 0; k < m.shock; k++ {
		distinct("shock", shockSpec(m, k, m.shockSteps), m.shockSteps)
	}
	nDistinct := len(jobs)

	// A derived job lands somewhere after its original.
	derive := func(orig int, kind string, spec serve.Spec, steps int) {
		o := jobs[orig]
		jobs = append(jobs, mixJob{Problem: o.Problem, Kind: kind, Spec: spec, Steps: steps, After: orig,
			key: o.key + (1-o.key)*rng.Float64()})
	}
	for r := 0; r < m.resubmit; r++ {
		orig := rng.Intn(nDistinct)
		derive(orig, "resubmit", jobs[orig].Spec, jobs[orig].Steps)
	}
	// Extensions and twins each take distinct originals, so no two
	// derived jobs collapse onto one key and the class counts are fixed.
	pick := func(problem string, n int) []int {
		var pool []int
		for i := 0; i < nDistinct; i++ {
			if jobs[i].Problem == problem {
				pool = append(pool, i)
			}
		}
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		return pool[:n]
	}
	for _, orig := range pick("flame", m.extFlame) {
		k, steps := orig-m.ignition, jobs[orig].Steps+flameExtend
		derive(orig, "extend", flameSpec(m, k, steps), steps)
	}
	for _, orig := range pick("shock", m.extShock) {
		k, steps := orig-m.ignition-m.flame, jobs[orig].Steps+shockExtend
		derive(orig, "extend", shockSpec(m, k, steps), steps)
	}
	for _, orig := range rng.Perm(nDistinct)[:m.twins] {
		jobs[orig].Twin = true
	}

	// Order by key, then rewrite After to the new positions.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].key < jobs[order[b]].key })
	pos := make([]int, len(jobs))
	for newIdx, old := range order {
		pos[old] = newIdx
	}
	out := make([]mixJob, len(jobs))
	for newIdx, old := range order {
		j := jobs[old]
		if j.After >= 0 {
			j.After = pos[j.After]
		}
		out[newIdx] = j
	}
	return out
}

// cloneSpec copies the parameter maps: Submit normalizes a spec in
// place, and resubmissions of one original may be in flight together.
func cloneSpec(sp serve.Spec) serve.Spec {
	params := make(map[string]map[string]string, len(sp.Params))
	for inst, kv := range sp.Params {
		params[inst] = make(map[string]string, len(kv))
		for k, v := range kv {
			params[inst][k] = v
		}
	}
	sp.Params = params
	return sp
}

// served is the outcome of one submitted job.
type served struct {
	job     int     // index in the list
	class   string  // hit, coalesced, warm, cold
	latency float64 // submit to done
	clientS float64 // client time this job consumed (a twin's wait overlaps its original's)
	status  serve.Status
}

// mixResult is one repetition of the mix.
type mixResult struct {
	seconds float64 // first submit to last job done
	jobs    []served
	failed  int
	errs    []string
	clients int
}

func classify(st serve.Status, immediate bool) string {
	switch {
	case st.CacheHit && immediate:
		return "hit"
	case st.CacheHit:
		return "coalesced"
	case st.WarmStart:
		return "warm"
	}
	return "cold"
}

// runMix drives the list through a fresh scheduler in a closed loop:
// 2N clients, each submitting its next job when its previous one is
// done, over N rank slots — a queue of about N jobs always waits, and a
// blocked client burns no CPU.
func runMix(list []mixJob, scratch string) (*mixResult, error) {
	dir, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	slots := runtime.GOMAXPROCS(0)
	sched, err := serve.NewScheduler(serve.Options{Slots: slots, Dir: dir})
	if err != nil {
		return nil, err
	}
	defer sched.Close()

	res := &mixResult{clients: 2 * slots}
	done := make([]chan struct{}, len(list))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		res.failed++
		if len(res.errs) < 8 {
			res.errs = append(res.errs, fmt.Sprintf(format, args...))
		}
	}
	submit := func(i int) (j *serve.Job, t0 time.Time, immediate bool) {
		t0 = time.Now()
		j, err := sched.Submit(cloneSpec(list[i].Spec))
		if err != nil {
			mu.Lock()
			fail("job %d: submit: %v", i, err)
			mu.Unlock()
			return nil, t0, false
		}
		select {
		case <-j.Done():
			immediate = true
		default:
		}
		return j, t0, immediate
	}
	// settle waits for j; since is when the client started waiting on it.
	settle := func(i int, j *serve.Job, t0, since time.Time, immediate bool) time.Time {
		if j == nil {
			return since
		}
		<-j.Done()
		end := time.Now()
		st, _ := sched.Get(j.ID, true)
		mu.Lock()
		res.jobs = append(res.jobs, served{job: i, class: classify(st, immediate),
			latency: end.Sub(t0).Seconds(), clientS: end.Sub(since).Seconds(), status: st})
		mu.Unlock()
		return end
	}

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < res.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				if a := list[i].After; a >= 0 {
					<-done[a]
				}
				j, t0, imm := submit(i)
				if list[i].Twin {
					j2, t2, imm2 := submit(i)
					settle(i, j2, t2, settle(i, j, t0, t0, imm), imm2)
				} else {
					settle(i, j, t0, t0, imm)
				}
				close(done[i])
			}
		}()
	}
	wg.Wait()
	res.seconds = time.Since(start).Seconds()
	res.verify(list, fail)
	return res, nil
}

// verify checks every served job: terminal state done, the dedup tier
// it should have hit, and — for every resubmission and twin — a result
// byte-identical to its original's.
func (res *mixResult) verify(list []mixJob, fail func(string, ...any)) {
	first := map[int][]byte{} // job index -> first served result
	resultOf := func(s served) []byte {
		b, _ := json.Marshal(s.status.Result)
		return b
	}
	sort.SliceStable(res.jobs, func(a, b int) bool { return res.jobs[a].job < res.jobs[b].job })
	for _, s := range res.jobs {
		job := list[s.job]
		st := s.status
		if st.State != serve.StateDone || st.Result == nil {
			fail("job %d (%s %s): ended %s: %s", s.job, job.Problem, job.Kind, st.State, st.Error)
			continue
		}
		if job.Steps > 0 && st.Result.Steps != job.Steps {
			fail("job %d: result has %d steps, want %d", s.job, st.Result.Steps, job.Steps)
		}
		b := resultOf(s)
		if prev, seen := first[s.job]; seen {
			// The second submission of a twin.
			if s.class == "cold" || s.class == "warm" || !bytes.Equal(prev, b) {
				fail("job %d: twin was %s and its result differs=%v", s.job, s.class, !bytes.Equal(prev, b))
			}
			continue
		}
		first[s.job] = b
		switch job.Kind {
		case "resubmit":
			if s.class != "hit" || st.StepsRun != 0 {
				fail("job %d: resubmission was %s with %d live steps", s.job, s.class, st.StepsRun)
			}
			if !bytes.Equal(first[job.After], b) {
				fail("job %d: resubmission result differs from its original's", s.job)
			}
		case "extend":
			want := map[string]int{"flame": flameExtend, "shock": shockExtend}[job.Problem]
			if s.class != "warm" || st.StepsRun != want {
				fail("job %d: extension was %s with %d live steps, want warm with %d", s.job, s.class, st.StepsRun, want)
			}
		default:
			if st.StepsRun < 1 {
				fail("job %d: distinct job ran no live step (%s)", s.job, s.class)
			}
		}
	}
}

// errors returns one error per failed job (the first few with their
// reason).
func (res *mixResult) errors() []error {
	var out []error
	for _, e := range res.errs {
		out = append(out, fmt.Errorf("%s", e))
	}
	for len(out) < res.failed {
		out = append(out, fmt.Errorf("(further failed jobs)"))
	}
	return out
}

// liveLatencies are submit-to-done latencies of the jobs that ran at
// least one live step.
func (res *mixResult) liveLatencies() []float64 {
	var out []float64
	for _, s := range res.jobs {
		if s.status.StepsRun >= 1 {
			out = append(out, s.latency)
		}
	}
	return out
}

// mixCounts are the deterministic facts of one repetition.
type mixCounts struct {
	hits, coalesced, warm, cold int
	liveSteps, stepsSaved       int
	classSeconds                map[string]float64
	hitLatencies                []float64
}

func (res *mixResult) counts(list []mixJob) mixCounts {
	c := mixCounts{classSeconds: map[string]float64{}}
	for _, s := range res.jobs {
		c.classSeconds[s.class] += s.clientS
		switch s.class {
		case "hit":
			c.hits++
			c.hitLatencies = append(c.hitLatencies, s.latency)
		case "coalesced":
			c.coalesced++
		case "warm":
			c.warm++
		default:
			c.cold++
		}
		c.liveSteps += s.status.StepsRun
		// Steps a dedup tier made unnecessary (mesh jobs only: the 0D
		// ignition has no step-indexed duration).
		if steps := list[s.job].Steps; steps > 0 {
			c.stepsSaved += steps - s.status.StepsRun
		}
	}
	return c
}
