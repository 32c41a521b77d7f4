package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"ccahydro/internal/exec"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w       *workload
	sz      sizes
	refKey  string // reference.json entry, "" for none
	seed    int64
	seconds float64 // how long the timed repetitions go on
	minReps int
	scratch string    // temp root inside the checkout
	start   time.Time // process start, for setup_s
	ref     reference
	record  reference // non-nil: collect reference values instead of verifying
	// coldSetup, when set, sets the workload up once more in a fresh
	// process (this program's -setup-only mode) and returns its seconds.
	coldSetup func() (float64, error)
}

// setupSamples is how many times a run sets up: once itself, the rest
// in fresh processes, so every sample is as cold as the first. One
// set-up is little more than one repetition, and one repetition alone
// is too noisy to compare between two runs (README, "Steadiness").
const setupSamples = 3

// value is one reported number. Timings carry their quartiles and
// sample count in the result file.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
	// Samples are the timed repetitions behind run_s, and the set-ups
	// behind setup_s, in run order: every run made is reported.
	Samples []float64 `json:"samples,omitempty"`
}

// passResult is the outcome of one pass (end-to-end or per-layer) over
// one workload.
type passResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Notes flag a metric whose samples do not support it.
	Notes   []string         `json:"notes,omitempty"`
	Metrics map[string]value `json:"metrics"`
	Ledger  *ledger          `json:"ledger,omitempty"`
}

func (p *passResult) fail(err error) {
	p.Failed++
	if len(p.Errors) < 8 {
		p.Errors = append(p.Errors, err.Error())
	}
}

func (p *passResult) set(name string, v float64) {
	def := findMetric(name)
	if def == nil {
		panic("undeclared metric " + name)
	}
	p.Metrics[name] = value{Value: v, Unit: def.Unit}
}

func (p *passResult) setSummary(name string, s summary) {
	p.set(name, s.Median)
	v := p.Metrics[name]
	v.Q1, v.Q3, v.N = &s.Q1, &s.Q3, s.N
	p.Metrics[name] = v
}

// setSamples reports a timing with every sample behind it.
func (p *passResult) setSamples(name string, xs []float64) {
	p.setSummary(name, summarize(xs))
	v := p.Metrics[name]
	v.Samples = xs
	p.Metrics[name] = v
}

// repOut is one untraced repetition: an operation that either verifies
// or fails.
type repOut struct {
	seconds float64
	work    float64 // cell updates, or served jobs
	ops     int     // operations attempted (1, or the jobs of a mix)
	errs    []error // one per failed operation
	chk     *checks // verified against the reference when set

	// Samples of the metrics only one workload has, pooled over the
	// repetitions: served-job latencies, and the end-of-run restore.
	live, hits []float64
	restoreS   float64
	// ignition_cells: the component loop and the direct-call loop beside
	// it, cell loops alone (seconds adds the assembly).
	loopS, directS float64
}

// verify checks (or, in record mode, stores) a repetition's values.
func (cfg *runConfig) verify(chk *checks) error {
	if chk == nil || cfg.refKey == "" {
		return nil
	}
	if cfg.record != nil {
		if prev, ok := cfg.record[cfg.refKey]; ok && !reflect.DeepEqual(prev, *chk) {
			return fmt.Errorf("%s: two repetitions disagree, nothing to record", cfg.refKey)
		}
		cfg.record[cfg.refKey] = *chk
		return nil
	}
	return cfg.ref.verify(cfg.refKey, *chk)
}

// pinWidth sets the process-wide pool to the workload's width.
func pinWidth(width int) {
	if width == 0 {
		width = runtime.GOMAXPROCS(0)
	}
	exec.SetDefaultWidth(width)
}

// repetition returns the workload's untraced repetition. Building it is
// the workload's input generation and counts toward setup_s.
func (cfg *runConfig) repetition() (rep func() (repOut, error)) {
	name := cfg.w.Name
	switch name {
	case "ignition_cells":
		pinWidth(0)
		n := 0
		return func() (repOut, error) {
			n++
			comp, direct, err := ignitionPair(cfg.sz.ignCells, n%2 == 0)
			if err != nil {
				return repOut{}, err
			}
			chk := comp.checks(cfg.sz.ignCells)
			return repOut{seconds: comp.assemble + comp.seconds, work: float64(cfg.sz.ignCells), ops: 1, chk: &chk,
				loopS: comp.seconds, directS: direct.seconds}, nil
		}
	case "ckpt_cycle":
		spec, width := meshWorkload(name, cfg.sz)
		pinWidth(width)
		return func() (repOut, error) {
			cy, err := runCkptCycle(spec, cfg.scratch)
			if err != nil {
				return repOut{}, err
			}
			return repOut{seconds: cy.seconds(), work: cy.save.cellSteps, ops: 1, chk: &cy.save.chk, restoreS: cy.end.seconds}, nil
		}
	case "serve_mix":
		pinWidth(0)
		list := generateMix(cfg.sz.mix, cfg.seed)
		warm := generateMix(warmMix, cfg.seed)
		if cfg.sz.refSuffix != "" {
			warm = generateMix(toyMix, cfg.seed)
		}
		return func() (repOut, error) {
			if warm != nil {
				// The warm-up is a small mix: it spawns the pool, fills the
				// process-wide caches and is verified job by job, without
				// spending a full repetition outside the measurement.
				res, err := runMix(warm, cfg.scratch)
				warm = nil
				if err != nil {
					return repOut{}, err
				}
				return repOut{seconds: res.seconds, ops: len(res.jobs), errs: res.errors()}, nil
			}
			res, err := runMix(list, cfg.scratch)
			if err != nil {
				return repOut{}, err
			}
			out := repOut{seconds: res.seconds, work: float64(len(res.jobs)), ops: cfg.sz.mix.jobs(), errs: res.errors()}
			c := res.counts(list)
			chk := c.checks()
			out.chk, out.live, out.hits = &chk, res.liveLatencies(), c.hitLatencies
			return out, nil
		}
	}
	spec, width := meshWorkload(name, cfg.sz)
	pinWidth(width)
	return func() (repOut, error) {
		r, err := runMesh(spec, nil)
		if err != nil {
			return repOut{}, err
		}
		return repOut{seconds: r.seconds, work: r.cellSteps, ops: 1, chk: &r.chk}, nil
	}
}

// ignitionPair runs the component loop and the direct loop back to
// back, in alternating order so drift of the host hits both alike.
func ignitionPair(cells int, directFirst bool) (comp, direct *ignitionResult, err error) {
	if directFirst {
		if direct, err = directCells(cells); err != nil {
			return nil, nil, err
		}
	}
	if comp, err = componentCells(cells, nil); err != nil {
		return nil, nil, err
	}
	if !directFirst {
		if direct, err = directCells(cells); err != nil {
			return nil, nil, err
		}
	}
	if comp.finalT != direct.finalT {
		return nil, nil, fmt.Errorf("component and direct loops disagree: final T %.17g vs %.17g", comp.finalT, direct.finalT)
	}
	return comp, direct, nil
}

// setupOnly is what a cold set-up child does: everything up to the
// first timed repetition, then report how long that took.
func (cfg *runConfig) setupOnly() (float64, error) {
	out, err := cfg.repetition()()
	if err == nil && len(out.errs) > 0 {
		err = out.errs[0]
	}
	if err == nil {
		err = cfg.verify(out.chk)
	}
	return time.Since(cfg.start).Seconds(), err
}

// endToEnd is the untraced pass over the workload's repetition.
func (cfg *runConfig) endToEnd() *passResult { return cfg.measure(cfg.repetition()) }

// measure runs rep once as a warm-up, then timed for cfg.seconds (never
// fewer than cfg.minReps repetitions that gave a sample), each a fresh
// framework.
func (cfg *runConfig) measure(rep func() (repOut, error)) *passResult {
	p := &passResult{Metrics: map[string]value{}}
	account := func(out repOut, err error) bool {
		if err != nil {
			p.Attempted++
			p.fail(err)
			return false
		}
		p.Attempted += out.ops
		for _, e := range out.errs {
			p.fail(e)
		}
		if err := cfg.verify(out.chk); err != nil {
			p.fail(err)
		}
		return true
	}
	account(rep()) // warm-up: verified, not timed
	setups := []float64{time.Since(cfg.start).Seconds()}

	var secs, rate, alloc, mallocs, live, hits, restores, loops, directs []float64
	var before, after runtime.MemStats
	t0 := time.Now()
	// A repetition that returns an error gives no sample; once time is
	// up and minReps of those have been seen the pass stops asking for more.
	broken := 0
	more := func() bool {
		return time.Since(t0).Seconds() < cfg.seconds || (len(secs) < cfg.minReps && broken < cfg.minReps)
	}
	for more() {
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := rep()
		runtime.ReadMemStats(&after)
		if !account(out, err) {
			broken++
			continue
		}
		secs = append(secs, out.seconds)
		rate = append(rate, out.work/out.seconds)
		alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/1e3)
		live = append(live, out.live...)
		hits = append(hits, out.hits...)
		if out.restoreS > 0 {
			restores = append(restores, out.restoreS)
		}
		if out.directS > 0 {
			loops = append(loops, out.loopS)
			directs = append(directs, out.directS)
		}
	}
	if len(secs) == 0 {
		return p // every repetition failed; no result to print
	}
	for cfg.coldSetup != nil && len(setups) < setupSamples {
		s, err := cfg.coldSetup()
		if err != nil {
			p.Attempted++
			p.fail(fmt.Errorf("cold set-up: %w", err))
			break
		}
		setups = append(setups, s)
	}
	p.setSamples("setup_s", setups)
	p.setSamples("run_s", secs)
	p.setSummary("work_per_s", summarize(rate))
	p.setSummary("alloc_mb", summarize(alloc))
	p.setSummary("mallocs_k", summarize(mallocs))

	// One-workload metrics, pooled over the repetitions and kept beside
	// the five above in the result file (the driver's line prints only
	// the five). The per-layer pass computes each the same way from the
	// one repetition it runs.
	if len(restores) > 0 {
		p.setSummary("ckpt.restore_s", summarize(restores))
	}
	if len(directs) > 0 {
		p.set("cca.port_overhead_pct", portOverheadPct(loops, directs))
	}
	if len(live) > 0 {
		p.setLatencies(live, hits)
		p.set("serve.jobs_per_s", median(rate))
	}
	return p
}

// portOverheadPct is the paper's Table 4 number: the component cell
// loop against the direct-call cell loop, assembly left out of both.
func portOverheadPct(loops, directs []float64) float64 {
	return 100 * (median(loops) - median(directs)) / median(directs)
}

// setLatencies reports the served-job latencies. A latency
// distribution's quartiles are not run-to-run noise, so these carry the
// sample count alone; the 90th percentile is flagged when fewer than
// ten samples lie beyond it.
func (p *passResult) setLatencies(live, hits []float64) {
	p90, supported := percentile(live, 90)
	if !supported {
		p.Notes = append(p.Notes, fmt.Sprintf("serve.job_p90_s: %d samples leave fewer than ten beyond the 90th percentile", len(live)))
	}
	p.Metrics["serve.job_p50_s"] = value{Value: median(live), Unit: "s", N: len(live)}
	p.Metrics["serve.job_p90_s"] = value{Value: p90, Unit: "s", N: len(live)}
	if len(hits) > 0 {
		p.set("serve.hit_us", median(hits)*1e6)
	}
}

// checks turns the seed-independent counts of a mix into reference
// values.
func (c mixCounts) checks() checks {
	chk := newChecks()
	chk.Ints["hits"] = []int64{int64(c.hits)}
	chk.Ints["coalesced"] = []int64{int64(c.coalesced)}
	chk.Ints["warm_starts"] = []int64{int64(c.warm)}
	chk.Ints["cold"] = []int64{int64(c.cold)}
	chk.Ints["live_steps"] = []int64{int64(c.liveSteps)}
	return chk
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// scratchDir makes the invocation's temp root under .bench_build in the
// working directory, so nothing is written outside the checkout.
func scratchDir() (string, error) {
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "tmp-")
}
