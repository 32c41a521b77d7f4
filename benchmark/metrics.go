package main

// The benchmark's vocabulary: workloads, layers, and every metric by
// name. BENCHMARK.json at the repository root restates this table in
// the driver's schema (TestBenchmarkJSONMatchesTable keeps the two in
// step); the README restates it for people.

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	// Layers lists the layers the workload executes. A layer not named
	// here is bypassed: its probes are skipped and its counters must
	// read zero, which is how the workloads keep the layers apart.
	Layers []string
}

var workloads = []workload{
	{"ignition_cells", "Table 4 loop: component-assembled vs direct-call CVODE cells; all time is cvode+chem+port crossings, no mesh",
		[]string{"core", "cca", "chem", "cvode"}},
	{"flame_w1", "reaction-diffusion flame on a width-1 pool: the plain single-threaded baseline, exec bypassed",
		[]string{"core", "cca", "scenario", "chem", "cvode", "rkc", "transport", "amr", "field"}},
	{"flame_wN", "same flame on a width-nproc pool: transport/rkc dominated with a chem/cvode phase; pairs with flame_w1",
		[]string{"core", "cca", "scenario", "chem", "cvode", "rkc", "transport", "amr", "field", "exec"}},
	{"shock_wN", "shock-interface on a width-nproc pool: euler/RK2/amr dominated, runs no chem, cvode, transport or rkc code",
		[]string{"core", "cca", "euler", "amr", "field", "exec"}},
	{"shock_r2", "same shock on 2 SCMD ranks: ghost fill becomes pack, mpi send, unpack plus per-step reductions",
		[]string{"core", "cca", "euler", "amr", "field", "mpi", "exec"}},
	{"ckpt_cycle", "shock with full checkpoints, then restore mid-run and at the end: writes beside reads on ckpt/field/amr snapshots",
		[]string{"core", "cca", "euler", "amr", "field", "exec", "ckpt"}},
	{"serve_mix", "closed-loop job mix on the run server: store hits, coalescing and warm starts do the work; serve/scenario/ckpt dominated",
		// The served jobs run every layer underneath; the workload's own
		// instruments see only these.
		[]string{"serve", "scenario", "ckpt"}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) uses(layer string) bool {
	for _, l := range w.Layers {
		if l == layer {
			return true
		}
	}
	return false
}

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it a regression; 0 means reported
	// only. Exact counts must repeat identically instead.
	Bound float64
	Exact bool
	// EndToEnd metrics are measured with tracing off on every workload
	// and are what the driver gates; the rest come from the per-layer
	// pass (probes P, counts C, traced run T, derived D).
	EndToEnd bool
	Source   string
	// Moves names the end-to-end metric and workloads this metric
	// should move; on every workload not named the prediction is no
	// change.
	Moves string
}

// The timing bounds are what the shared 2-CPU seed host can resolve:
// its speed drifts by up to a quarter over tens of minutes (README,
// "Steadiness"). Allocation figures repeat to a few tenths of a percent.
var metricDefs = []metricDef{
	// End to end, every workload, tracing off.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true, Source: "E",
		Moves: "process start to first timed repetition: input generation, scenario compile, assembly, temp dirs, warm-up repetition"},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true, Source: "E",
		Moves: "one repetition, assembly through Go return (ckpt_cycle: save run + mid-run restore + end restore; serve_mix: first submit to last job done)"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, EndToEnd: true, Source: "E",
		Moves: "cell updates per second (serve_mix: jobs per second) = fixed work / run_s"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02, EndToEnd: true, Source: "E",
		Moves: "runtime.MemStats.TotalAlloc delta per repetition"},
	{Name: "mallocs_k", Unit: "1e3", Better: "lower", Bound: 0.02, EndToEnd: true, Source: "E",
		Moves: "runtime.MemStats.Mallocs delta per repetition"},

	// End to end on one workload only; the driver's schema wants every
	// end-to-end metric on every workload, so these are declared per
	// layer there and gated by this benchmark's own -compare.
	{Name: "ckpt.disk_mb", Unit: "MB", Better: "lower", Exact: true, Source: "C", Moves: "ckpt_cycle: bytes on disk after the full-checkpoint run"},
	{Name: "ckpt.restore_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "E", Moves: "ckpt_cycle: assemble + restore from the last step, zero live steps"},
	{Name: "serve.job_p50_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "E", Moves: "serve_mix: submit to done over jobs that ran at least one live step"},
	{Name: "serve.job_p90_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "E", Moves: "serve_mix: same, 90th percentile"},

	// transport
	{Name: "transport.properties_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "run_s on flame_w1, flame_wN (largest single share)"},
	{Name: "transport.properties_calls", Unit: "count", Better: "lower", Exact: true, Source: "T", Moves: "run_s on flame_*"},
	{Name: "transport.total_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on flame_*"},
	// rkc
	{Name: "rkc.phase_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on flame_*"},
	{Name: "rkc.stages", Unit: "count", Better: "lower", Exact: true, Source: "T", Moves: "run_s on flame_*"},
	{Name: "rkc.rhs_region_calls", Unit: "count", Better: "lower", Exact: true, Source: "T", Moves: "run_s on flame_*"},
	// chem
	{Name: "chem.rhs_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "run_s on ignition_cells, flame_*"},
	{Name: "chem.jac_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "run_s on ignition_cells, flame_*"},
	{Name: "chem.phase_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on flame_* (about a fifth)"},
	{Name: "chem.source_calls", Unit: "count", Better: "lower", Exact: true, Source: "T", Moves: "run_s on ignition_cells, flame_*"},
	// cvode
	{Name: "cvode.cell_us", Unit: "us", Better: "lower", Source: "T", Moves: "run_s, work_per_s on ignition_cells, flame_*"},
	{Name: "cvode.steps", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on ignition_cells, flame_*"},
	{Name: "cvode.rhs_evals", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on ignition_cells, flame_*"},
	{Name: "cvode.jac_builds", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on ignition_cells, flame_*"},
	{Name: "cvode.newton_iters", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on ignition_cells, flame_*"},
	{Name: "cvode.err_fails", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on ignition_cells, flame_*"},
	// euler
	{Name: "euler.rhs_cell_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "run_s on shock_wN, shock_r2, ckpt_cycle"},
	{Name: "euler.flux_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "run_s on shock_wN, shock_r2, ckpt_cycle"},
	{Name: "euler.phase_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on shock_wN, shock_r2, ckpt_cycle"},
	// amr
	{Name: "amr.regrid_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "run_s on flame_*, shock_* (a few percent)"},
	{Name: "amr.regrids", Unit: "count", Better: "lower", Exact: true, Source: "T", Moves: "run_s on flame_*, shock_*"},
	{Name: "amr.patches", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "fixes the work behind work_per_s"},
	{Name: "amr.cells_total", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "fixes the work behind work_per_s"},
	// field
	{Name: "field.ghost_us", Unit: "us", Better: "lower", Source: "P", Moves: "run_s on shock_wN, flame_*"},
	{Name: "field.ghost_r2_us", Unit: "us", Better: "lower", Source: "P", Moves: "run_s on shock_r2"},
	{Name: "field.ghost_transfers", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on shock_*, flame_*"},
	{Name: "field.ghost_words", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on shock_r2"},
	{Name: "field.halo_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on shock_r2 most, then shock_wN, flame_*"},
	{Name: "field.cf_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on shock_*, flame_*"},
	// mpi
	{Name: "mpi.sends_per_step", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on shock_r2 only"},
	{Name: "mpi.words_per_step", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on shock_r2 only"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower", Source: "P", Moves: "run_s on shock_r2 only"},
	{Name: "mpi.coll_s", Unit: "s", Better: "lower", Source: "T", Moves: "virtual seconds of collective flights; run_s on shock_r2 only"},
	{Name: "mpi.virtual_s", Unit: "s", Better: "lower", Source: "C", Moves: "max rank virtual clock; shock_r2 only"},
	// exec
	{Name: "exec.dispatch_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "run_s on flame_wN, shock_wN; none on flame_w1"},
	{Name: "exec.speedup_wN", Unit: "ratio", Better: "higher", Source: "D", Moves: "flame at width 1 / flame at width nproc, measured in flame_wN's per-layer pass"},
	{Name: "exec.epochs", Unit: "count", Better: "lower", Exact: true, Source: "T", Moves: "run_s on flame_wN, shock_wN; 0 on flame_w1"},
	{Name: "exec.pool_s", Unit: "s", Better: "lower", Source: "T", Moves: "caller-track time inside pool epochs; run_s on flame_wN, shock_wN"},
	// cca
	{Name: "cca.port_overhead_pct", Unit: "%", Better: "lower", Source: "D", Moves: "ignition_cells component vs direct loop; the paper's Table 4 number"},
	{Name: "cca.port_call_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "run_s on ignition_cells"},
	{Name: "cca.direct_call_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "reference for cca.port_call_ns"},
	{Name: "cca.assemble_ms", Unit: "ms", Better: "lower", Source: "P", Moves: "setup_s everywhere"},
	{Name: "cca.port_calls", Unit: "count", Better: "lower", Exact: true, Source: "T", Moves: "run_s on ignition_cells, flame_*"},
	// scenario
	{Name: "scenario.compile_us", Unit: "us", Better: "lower", Source: "P", Moves: "setup_s; serve.job_p50_s for scenario payloads"},
	{Name: "scenario.build_ms", Unit: "ms", Better: "lower", Source: "P", Moves: "setup_s"},
	// core/components drivers
	{Name: "driver.step_p50_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on every mesh workload"},
	{Name: "driver.steps", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on every mesh workload"},
	// ckpt
	{Name: "ckpt.encode_mb_s", Unit: "MB/s", Better: "higher", Source: "P", Moves: "run_s on ckpt_cycle; work_per_s on serve_mix"},
	{Name: "ckpt.decode_mb_s", Unit: "MB/s", Better: "higher", Source: "P", Moves: "ckpt.restore_s, run_s on ckpt_cycle"},
	{Name: "ckpt.full_bytes", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "ckpt.disk_mb on ckpt_cycle"},
	{Name: "ckpt.delta_bytes", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "bytes on disk with Incremental on; ckpt_cycle"},
	{Name: "ckpt.saves", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "run_s on ckpt_cycle"},
	{Name: "ckpt.save_s", Unit: "s", Better: "lower", Source: "T", Moves: "run_s on ckpt_cycle"},
	{Name: "ckpt.overhead_frac", Unit: "ratio", Better: "lower", Source: "D", Moves: "checkpointing run / plain run - 1, measured in ckpt_cycle's per-layer pass"},
	// serve
	{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher", Source: "E", Moves: "serve_mix: jobs / run_s, same as work_per_s there"},
	{Name: "serve.hit_us", Unit: "us", Better: "lower", Source: "E", Moves: "work_per_s on serve_mix"},
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Source: "C", Moves: "store hits / exact resubmissions, expected 1"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher", Exact: true, Source: "C", Moves: "work_per_s on serve_mix"},
	{Name: "serve.warm_starts", Unit: "count", Better: "higher", Exact: true, Source: "C", Moves: "work_per_s on serve_mix"},
	{Name: "serve.live_steps", Unit: "count", Better: "lower", Exact: true, Source: "C", Moves: "work_per_s on serve_mix"},
	{Name: "serve.steps_saved", Unit: "count", Better: "higher", Exact: true, Source: "C", Moves: "work_per_s on serve_mix"},
	{Name: "serve.preempt_latency_s", Unit: "s", Better: "lower", Source: "P", Moves: "serve.job_p90_s for high-priority jobs"},
	{Name: "serve.http_submit_us", Unit: "us", Better: "lower", Source: "P", Moves: "serve.hit_us over HTTP"},
	{Name: "serve.store_put_us", Unit: "us", Better: "lower", Source: "P", Moves: "serve.job_p50_s"},
	// obs
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower", Source: "D", Moves: "none today (end-to-end runs are untraced)"},
	{Name: "obs.events", Unit: "count", Better: "lower", Source: "T", Moves: "obs.trace_overhead_frac"},
	// ledger: self seconds on rank 0's driver track, summing to wall_s.
	{Name: "ledger.wall_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.driver_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.rkc_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.chem_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.hydro_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.samr_regrid_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.samr_halo_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.samr_cf_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.coll_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.ckpt_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.pool_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.serve_hit_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.serve_coalesced_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.serve_warm_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.serve_cold_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.unattributed_s", Unit: "s", Better: "lower", Source: "T"},
	{Name: "ledger.unattributed_frac", Unit: "ratio", Better: "lower", Source: "T"},
	{Name: "ledger.worker_busy_s", Unit: "s", Better: "lower", Source: "T", Moves: "worker-track chunk seconds, reported beside the ledger, not added in"},
	// host
	{Name: "host.calib_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "fixed floating-point spin; drift of the shared machine, not of the code"},
}

func findMetric(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].Name == name {
			return &metricDefs[i]
		}
	}
	return nil
}
