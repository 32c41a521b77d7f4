package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"

	"ccahydro/internal/exec"
	"ccahydro/internal/obs"
)

// The per-layer pass of one workload: the layer probes, one untraced
// repetition read through public accessors (counts), and one traced
// repetition (port-call histograms and the span ledger). Every
// per-layer metric is reported, zero where the workload bypasses the
// layer.

var portCallRE = regexp.MustCompile(`^` + obs.PortCallBase + `\{instance="([^"]*)",port="([^"]*)",method="([^"]*)"\}$`)

type portCalls struct {
	calls   uint64
	seconds float64
}

// sumPortCalls totals the interceptor histograms whose labels match.
func sumPortCalls(snap obs.Snapshot, match func(instance, port, method string) bool) portCalls {
	var pc portCalls
	for _, h := range snap.Histograms {
		if m := portCallRE.FindStringSubmatch(h.Name); m != nil && match(m[1], m[2], m[3]) {
			pc.calls += h.Count
			pc.seconds += h.SumSeconds
		}
	}
	return pc
}

func methodIn(names ...string) func(_, _, method string) bool {
	return func(_, _, method string) bool {
		for _, n := range names {
			if method == n {
				return true
			}
		}
		return false
	}
}

// traced runs fn with an observability group attached through the
// public attach points and returns what its trace and registry say.
// On one rank the shared default pool is handed the tracer too: it
// carries none of its own.
func traced(ranks int, fn func(*obs.Group) error) (traceFacts, obs.Snapshot, error) {
	group := obs.NewGroup(ranks)
	if ranks == 1 {
		exec.Default().SetTracer(group.Rank(0).Tracer())
		defer exec.Default().SetTracer(nil)
	}
	if err := fn(group); err != nil {
		return traceFacts{}, obs.Snapshot{}, err
	}
	var buf bytes.Buffer
	if err := group.WriteTrace(&buf); err != nil {
		return traceFacts{}, obs.Snapshot{}, err
	}
	spans, events, err := parseTrace(&buf)
	if err != nil {
		return traceFacts{}, obs.Snapshot{}, err
	}
	tf := analyzeTrace(spans, events)
	if tf.rootsFound != 1 {
		return tf, obs.Snapshot{}, fmt.Errorf("trace has %d benchmark root spans on rank 0, want 1", tf.rootsFound)
	}
	return tf, group.MergedSnapshot(), nil
}

// perLayer is the per-layer pass.
func (cfg *runConfig) perLayer() *passResult {
	p := &passResult{Metrics: map[string]value{}}
	for _, def := range metricDefs {
		if !def.EndToEnd {
			p.set(def.Name, 0)
		}
	}
	m := map[string]float64{}
	p.Attempted = 1
	if err := cfg.layerMetrics(m, p); err != nil {
		p.fail(err)
	}
	for name, v := range m {
		p.set(name, v)
	}
	return p
}

func (cfg *runConfig) layerMetrics(m map[string]float64, p *passResult) error {
	w, sz := cfg.w, cfg.sz
	m["host.calib_ns"] = calibrate()

	probes := []struct {
		layer string
		run   func() error
	}{
		{"transport", func() error { return probeTransport(m, sz) }},
		{"chem", func() error { return probeChem(m, sz) }},
		{"euler", func() error { probeEuler(m, sz); return nil }},
		{"exec", func() error { probeExec(m, sz); return nil }},
		{"cca", func() error { return probeCCA(m, sz) }},
		{"scenario", func() error { return probeScenario(m, sz) }},
		{"field", func() error { return probeHalo(m, sz, 1) }},
		{"mpi", func() error { return probeHalo(m, sz, 2) }},
		{"serve", func() error { return probeServe(m, sz, cfg.scratch) }},
	}
	for _, pr := range probes {
		if w.uses(pr.layer) {
			if err := pr.run(); err != nil {
				return fmt.Errorf("%s probe: %w", pr.layer, err)
			}
		}
	}

	switch w.Name {
	case "ignition_cells":
		return cfg.ignitionLayers(m, p)
	case "serve_mix":
		return cfg.serveLayers(m, p)
	}
	return cfg.meshLayers(m, p)
}

func (cfg *runConfig) ignitionLayers(m map[string]float64, p *passResult) error {
	pinWidth(0)
	cells := cfg.sz.ignCells
	var compS, directS []float64
	var comp *ignitionResult
	for n := 0; n < 3; n++ {
		c, d, err := ignitionPair(cells, n%2 == 1)
		if err != nil {
			return err
		}
		chk := c.checks(cells)
		if err := cfg.verify(&chk); err != nil {
			return err
		}
		comp = c
		compS = append(compS, c.seconds)
		directS = append(directS, d.seconds)
	}
	m["cca.port_overhead_pct"] = portOverheadPct(compS, directS)
	m["cvode.steps"] = float64(comp.stats.Steps)
	m["cvode.rhs_evals"] = float64(comp.stats.RHSEvals)
	m["cvode.jac_builds"] = float64(comp.stats.JacEvals)
	m["cvode.newton_iters"] = float64(comp.stats.NewtonIters)
	m["cvode.err_fails"] = float64(comp.stats.ErrTestFails)

	var tr *ignitionResult
	tf, snap, err := traced(1, func(g *obs.Group) (err error) {
		defer g.Rank(0).Span(benchCat, "run")()
		tr, err = componentCells(cells, g.Rank(0))
		return err
	})
	if err != nil {
		return err
	}
	// The loop calls the integrator component directly, so no
	// IntegrateTo wire exists to read; the traced loop time per cell
	// stands in for it.
	m["cvode.cell_us"] = tr.seconds / float64(cells) * 1e6
	traceMetrics(m, tf, snap, tr.seconds, median(compS))
	p.Ledger = &tf.ledger
	return nil
}

func (cfg *runConfig) meshLayers(m map[string]float64, p *passResult) error {
	name := cfg.w.Name
	spec, width := meshWorkload(name, cfg.sz)
	pinWidth(width)

	var base *meshResult
	var err error
	var saveDir string
	if name == "ckpt_cycle" {
		plain, err := runMesh(spec, nil)
		if err != nil {
			return err
		}
		if saveDir, err = os.MkdirTemp(cfg.scratch, "save-"); err != nil {
			return err
		}
		defer os.RemoveAll(saveDir)
		if base, err = runSave(spec, saveDir, false, nil); err != nil {
			return err
		}
		m["ckpt.overhead_frac"] = base.seconds/plain.seconds - 1
		if err := cfg.ckptLayers(m, spec, saveDir, base); err != nil {
			return err
		}
	} else if base, err = runMesh(spec, nil); err != nil {
		return err
	}
	if err := cfg.verify(&base.chk); err != nil {
		return err
	}
	if name == "flame_wN" {
		// The honest W1-vs-WN row, and the bit-for-bit check between them.
		exec.SetDefaultWidth(1)
		w1, err := runMesh(spec, nil)
		pinWidth(width)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(w1.chk, base.chk) {
			return fmt.Errorf("flame at width 1 and width %d disagree", runtime.GOMAXPROCS(0))
		}
		m["exec.speedup_wN"] = w1.seconds / base.seconds
	}

	steps := float64(base.steps)
	m["driver.steps"] = steps
	m["cvode.steps"] = float64(base.cvode.Steps)
	m["cvode.rhs_evals"] = float64(base.cvode.RHSEvals)
	m["cvode.jac_builds"] = float64(base.cvode.JacEvals)
	m["cvode.newton_iters"] = float64(base.cvode.NewtonIters)
	m["cvode.err_fails"] = float64(base.cvode.ErrTestFails)
	m["amr.patches"] = float64(base.patches)
	m["amr.cells_total"] = float64(base.cellsTotal)
	m["field.ghost_transfers"] = float64(base.transfers)
	m["field.ghost_words"] = float64(base.ghostWords)
	m["mpi.sends_per_step"] = float64(base.sends) / steps
	m["mpi.words_per_step"] = float64(base.wordsSent) / steps
	m["mpi.virtual_s"] = base.virtualS

	var tr *meshResult
	tf, snap, err := traced(spec.ranks, func(g *obs.Group) (err error) {
		if name == "ckpt_cycle" {
			dir, err := os.MkdirTemp(cfg.scratch, "traced-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			tr, err = runSave(spec, dir, false, g)
			return err
		}
		tr, err = runMesh(spec, g)
		return err
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(tr.chk, base.chk) {
		return fmt.Errorf("traced and untraced repetitions disagree")
	}
	if it := sumPortCalls(snap, methodIn("IntegrateTo")); it.calls > 0 {
		m["cvode.cell_us"] = it.seconds / float64(it.calls) * 1e6
	}
	traceMetrics(m, tf, snap, tr.seconds, base.seconds)
	p.Ledger = &tf.ledger
	return nil
}

// ckptLayers runs the rest of the cycle against the full-checkpoint
// directory: disk usage, the incremental twin, the end-of-run restore,
// and the shard codec probe.
func (cfg *runConfig) ckptLayers(m map[string]float64, spec meshSpec, saveDir string, base *meshResult) error {
	full, saves, err := dirUsage(saveDir)
	if err != nil {
		return err
	}
	m["ckpt.full_bytes"] = float64(full)
	m["ckpt.disk_mb"] = float64(full) / 1e6
	m["ckpt.saves"] = float64(saves)

	incDir, err := os.MkdirTemp(cfg.scratch, "inc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(incDir)
	if _, err := runSave(spec, incDir, true, nil); err != nil {
		return err
	}
	delta, _, err := dirUsage(incDir)
	if err != nil {
		return err
	}
	m["ckpt.delta_bytes"] = float64(delta)

	var restores []float64
	for n := 0; n < 5; n++ {
		end, err := runRestore(spec, saveDir, base.steps-1)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(end.chk, base.chk) {
			return fmt.Errorf("end restore does not reproduce the saved run's series")
		}
		restores = append(restores, end.seconds)
	}
	m["ckpt.restore_s"] = median(restores)
	return probeCkptCodec(m, cfg.sz, saveDir)
}

// traceMetrics fills everything read from the traced repetition.
func traceMetrics(m map[string]float64, tf traceFacts, snap obs.Snapshot, tracedS, baseS float64) {
	props := sumPortCalls(snap, methodIn("Properties"))
	m["transport.properties_calls"] = float64(props.calls)
	m["transport.total_s"] = sumPortCalls(snap, methodIn("Properties", "MaxDiffusivity")).seconds
	m["rkc.phase_s"] = tf.phase["rkc"]
	m["rkc.stages"] = float64(tf.stages)
	m["rkc.rhs_region_calls"] = float64(sumPortCalls(snap, func(inst, _, method string) bool {
		return inst == "rkc" && (method == "EvalRegion" || method == "EvalPatch")
	}).calls)
	m["chem.phase_s"] = tf.phase["chem"]
	m["chem.source_calls"] = float64(sumPortCalls(snap, methodIn("ConstPressure", "ConstVolume")).calls)
	m["euler.phase_s"] = tf.phase["hydro"]
	if tf.regrids > 0 {
		m["amr.regrid_ms"] = tf.regridS / float64(tf.regrids) * 1e3
	}
	m["amr.regrids"] = float64(tf.regrids)
	m["field.halo_s"] = tf.ledger.Rows["samr_halo"]
	m["field.cf_s"] = tf.ledger.Rows["samr_cf"]
	m["mpi.coll_s"] = tf.collVirtS
	m["exec.epochs"] = float64(tf.epochs)
	m["exec.pool_s"] = tf.epochS
	m["cca.port_calls"] = float64(sumPortCalls(snap, func(_, _, _ string) bool { return true }).calls)
	if len(tf.stepS) > 0 {
		m["driver.step_p50_s"] = median(tf.stepS)
	}
	m["ckpt.save_s"] = tf.saveS
	m["obs.trace_overhead_frac"] = tracedS/baseS - 1
	m["obs.events"] = float64(tf.events)

	m["ledger.wall_s"] = tf.ledger.Wall
	for _, row := range ledgerRows {
		m["ledger."+row+"_s"] = tf.ledger.Rows[row]
	}
	m["ledger.unattributed_s"] = tf.ledger.Unattributed
	m["ledger.unattributed_frac"] = tf.ledger.Unattributed / tf.ledger.Wall
	m["ledger.worker_busy_s"] = tf.ledger.WorkerBusy
}

// serveLayers runs one repetition of the mix. The server has no spans
// of its own to read, so its ledger is built from outside: client
// seconds between Submit and Done per job class, against the client
// seconds the repetition had to give.
func (cfg *runConfig) serveLayers(m map[string]float64, p *passResult) error {
	pinWidth(0)
	list := generateMix(cfg.sz.mix, cfg.seed)
	res, err := runMix(list, cfg.scratch)
	if err != nil {
		return err
	}
	p.Attempted = cfg.sz.mix.jobs()
	for _, e := range res.errors() {
		p.fail(e)
	}
	c := res.counts(list)
	chk := c.checks()
	if err := cfg.verify(&chk); err != nil {
		return err
	}

	p.setLatencies(res.liveLatencies(), c.hitLatencies)
	m["serve.jobs_per_s"] = float64(len(res.jobs)) / res.seconds
	if n := cfg.sz.mix.resubmit; n > 0 {
		m["serve.hit_ratio"] = float64(c.hits) / float64(n)
	}
	m["serve.coalesced"] = float64(c.coalesced)
	m["serve.warm_starts"] = float64(c.warm)
	m["serve.live_steps"] = float64(c.liveSteps)
	m["serve.steps_saved"] = float64(c.stepsSaved)

	l := ledger{Wall: float64(res.clients) * res.seconds, Rows: map[string]float64{}}
	for _, class := range []string{"hit", "coalesced", "warm", "cold"} {
		l.Rows["serve_"+class] = c.classSeconds[class]
		m["ledger.serve_"+class+"_s"] = c.classSeconds[class]
	}
	l.Unattributed = l.Wall - (l.sum() - l.Unattributed)
	m["ledger.wall_s"] = l.Wall
	m["ledger.unattributed_s"] = l.Unattributed
	m["ledger.unattributed_frac"] = l.Unattributed / l.Wall
	p.Ledger = &l
	return nil
}
