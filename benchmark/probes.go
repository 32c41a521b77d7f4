package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/chem"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/euler"
	"ccahydro/internal/exec"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
	"ccahydro/internal/scenario"
	"ccahydro/internal/serve"
)

// Layer probes: the benchmark times calls into a layer's public
// functions on fixed inputs. A probe runs only on workloads that use
// its layer; elsewhere the metric reads zero.

// flame2d.scn is a copy of scenarios/flame2d.scn, kept here so the
// benchmark names no file outside its own directory.
//
//go:embed flame2d.scn
var flameScenario []byte

// prober sets how long a probe measures: the full sizes time batches
// of 2 ms or more, long enough for the clock to resolve, and take the
// median over 15 of them, which discards scheduler interruptions.
type prober struct {
	minBatch time.Duration
	batches  int
	rounds   int // exchanges per timed collective loop; every rank runs the same count
}

var (
	fullProbe = prober{minBatch: 2 * time.Millisecond, batches: 15, rounds: 200}
	toyProbe  = prober{minBatch: 50 * time.Microsecond, batches: 3, rounds: 5}
)

// timeOp returns the median time of one fn call in nanoseconds.
func (pr prober) timeOp(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= pr.minBatch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, pr.batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

var probeSink float64

// hotState is a fixed burning-gas state on the 9-species mechanism.
func hotState(mech *chem.Mechanism) (T, P float64, Y []float64) {
	return 1500, chem.PAtm, mech.StoichiometricH2Air()
}

func probeTransport(m map[string]float64, sz sizes) error {
	f := cca.NewFramework(repo(), nil)
	if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: flameParams(sz.flameN, sz.flameSteps)}); err != nil {
		return err
	}
	comp, err := f.Lookup("drfm")
	if err != nil {
		return err
	}
	var port components.TransportPort = comp.(*components.DRFMComponent)
	mech := chem.H2Air()
	T, P, Y := hotState(mech)
	X, D := make([]float64, len(Y)), make([]float64, len(Y))
	m["transport.properties_ns"] = sz.probe.timeOp(func() {
		lam, _ := port.Properties(T, P, Y, X, D)
		probeSink += lam
	})
	return nil
}

func probeChem(m map[string]float64, sz sizes) error {
	mech := chem.H2Air()
	kern := chem.KernelFor(mech.Name)
	if kern == nil {
		return fmt.Errorf("no generated kernel registered for %s", mech.Name)
	}
	T, P, Y := hotState(mech)
	n := len(Y)
	dY, jac := make([]float64, n), make([]float64, (n+1)*(n+1))
	m["chem.rhs_ns"] = sz.probe.timeOp(func() { probeSink += kern.ConstPressureSource(T, P, Y, dY) })
	m["chem.jac_ns"] = sz.probe.timeOp(func() { kern.ConstPressureJacobian(T, P, Y, jac) })
	return nil
}

func probeEuler(m map[string]float64, sz sizes) {
	const n = 128
	gas := euler.Gas{Gamma: euler.AirGamma}
	patch := &amr.Patch{Box: amr.NewBox(0, 0, n-1, n-1)}
	pd := field.NewPatchData(patch, euler.NumComp, 2)
	out := field.NewPatchData(patch, euler.NumComp, 2)
	g := pd.GrownBox()
	for j := g.Lo[1]; j <= g.Hi[1]; j++ {
		for i := g.Lo[0]; i <= g.Hi[0]; i++ {
			// A smooth oblique wave: every face gets a non-trivial
			// Riemann problem, none degenerate.
			s := math.Sin(0.05*float64(i) + 0.03*float64(j))
			u := gas.ToConserved(euler.Primitive{Rho: 1 + 0.2*s, U: 0.5 * s, V: -0.3 * s, P: 1 + 0.3*s, Zeta: 0.5 + 0.4*s})
			for k := 0; k < euler.NumComp; k++ {
				pd.Set(k, i, j, u[k])
			}
		}
	}
	solver := euler.NewSolver(euler.AirGamma, euler.GodunovFlux)
	m["euler.rhs_cell_ns"] = sz.probe.timeOp(func() { solver.RHSRegion(pd, out, pd.Interior(), 1.0/n, 1.0/n) }) / (n * n)
	l := euler.Primitive{Rho: 1.86, U: 0.69, P: 2.46, Zeta: 0}
	r := euler.Primitive{Rho: 1, P: 1, Zeta: 1}
	m["euler.flux_ns"] = sz.probe.timeOp(func() { probeSink += euler.GodunovFlux(gas, l, r)[0] })
}

func probeExec(m map[string]float64, sz sizes) {
	pool := exec.NewPool(runtime.GOMAXPROCS(0))
	m["exec.dispatch_ns"] = sz.probe.timeOp(func() { pool.ForEachChunk(pool.Width(), func(_, _, _ int) {}) })
}

// probeHalo times a full ghost exchange (Start + Finish over every
// level) on the shock hierarchy after a few steps, serially or on 2
// ranks, plus the Allreduce beside it on 2 ranks.
func probeHalo(m map[string]float64, sz sizes, ranks int) error {
	req := core.RunRequest{Problem: "shock", Params: shockParams(sz.shockNx, 6)}
	var ghostUs, reduceUs float64
	body := func(f *cca.Framework, comm *mpi.Comm) error {
		if err := core.AssembleRequest(f, req); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		comp, err := f.Lookup("grace")
		if err != nil {
			return err
		}
		d := comp.(components.MeshPort).Field("U")
		levels := d.Hierarchy().NumLevels()
		exchange := func() {
			for l := 0; l < levels; l++ {
				d.ExchangeGhostsStart(l).Finish()
			}
		}
		if comm == nil {
			ghostUs = sz.probe.timeOp(exchange) / 1e3
			return nil
		}
		exchange() // build the cached schedule outside the timing
		var samples, reduce []float64
		for batch := 0; batch < 5; batch++ {
			t0 := time.Now()
			for i := 0; i < sz.probe.rounds; i++ {
				exchange()
			}
			samples = append(samples, float64(time.Since(t0).Microseconds())/float64(sz.probe.rounds))
			t0 = time.Now()
			for i := 0; i < sz.probe.rounds; i++ {
				comm.AllreduceScalar(mpi.OpSum, 1)
			}
			reduce = append(reduce, float64(time.Since(t0).Microseconds())/float64(sz.probe.rounds))
		}
		if comm.Rank() == 0 {
			ghostUs, reduceUs = median(samples), median(reduce)
		}
		return nil
	}
	if ranks == 1 {
		if err := body(cca.NewFramework(repo(), nil), nil); err != nil {
			return err
		}
		m["field.ghost_us"] = ghostUs
		return nil
	}
	if err := cca.RunSCMDOn(mpi.NewWorld(ranks, mpi.CPlantModel), repo(), body).Err(); err != nil {
		return err
	}
	m["field.ghost_r2_us"] = ghostUs
	m["mpi.allreduce_us"] = reduceUs
	return nil
}

// The no-op adder port: the smallest possible CCA wire, for the cost
// of one port crossing against one concrete call.
type adderPort interface{ Add(a, b float64) float64 }

type adder struct{}

//go:noinline
func (*adder) Add(a, b float64) float64 { return a + b }

func (ad *adder) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(ad, "add", "bench.AdderPort")
}

type adderUser struct{ svc cca.Services }

func (u *adderUser) SetServices(svc cca.Services) error {
	u.svc = svc
	return svc.RegisterUsesPort("add", "bench.AdderPort")
}

func probeCCA(m map[string]float64, sz sizes) error {
	r := cca.NewRepository()
	r.Register("Adder", func() cca.Component { return &adder{} })
	r.Register("AdderUser", func() cca.Component { return &adderUser{} })
	f := cca.NewFramework(r, nil)
	for _, s := range [][2]string{{"Adder", "adder"}, {"AdderUser", "user"}} {
		if err := f.Instantiate(s[0], s[1]); err != nil {
			return err
		}
	}
	if err := f.Connect("user", "add", "adder", "add"); err != nil {
		return err
	}
	comp, err := f.Lookup("user")
	if err != nil {
		return err
	}
	p, err := comp.(*adderUser).svc.GetPort("add")
	if err != nil {
		return err
	}
	port := p.(adderPort)
	direct := &adder{}
	x := 1.0
	m["cca.port_call_ns"] = sz.probe.timeOp(func() { x = port.Add(x, 1e-9) })
	m["cca.direct_call_ns"] = sz.probe.timeOp(func() { x = direct.Add(x, 1e-9) })
	probeSink += x

	req := core.RunRequest{Problem: "flame", Params: flameParams(sz.flameN, sz.flameSteps)}
	var asmErr error
	m["cca.assemble_ms"] = sz.probe.timeOp(func() {
		if err := core.AssembleRequest(cca.NewFramework(repo(), nil), req); err != nil {
			asmErr = err
		}
	}) / 1e6
	return asmErr
}

func probeScenario(m map[string]float64, sz sizes) error {
	compiled, err := scenario.Compile("flame2d.scn", flameScenario)
	if err != nil {
		return err
	}
	m["scenario.compile_us"] = sz.probe.timeOp(func() {
		if _, e := scenario.Compile("flame2d.scn", flameScenario); e != nil {
			err = e
		}
	}) / 1e3
	m["scenario.build_ms"] = sz.probe.timeOp(func() {
		if e := compiled.Build(cca.NewFramework(repo(), nil)); e != nil {
			err = e
		}
	}) / 1e6
	return err
}

// probeCkptCodec decodes and re-encodes a shard captured from a
// checkpointing run (the largest shard file under dir).
func probeCkptCodec(m map[string]float64, sz sizes, dir string) error {
	var shardPath string
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".shard") && info.Size() > size {
			shardPath, size = filepath.Join(dir, e.Name()), info.Size()
		}
	}
	if shardPath == "" {
		return fmt.Errorf("no shard under %s", dir)
	}
	raw, err := os.ReadFile(shardPath)
	if err != nil {
		return err
	}
	shard, err := ckpt.DecodeShard(raw)
	if err != nil {
		return err
	}
	mb := float64(len(raw)) / 1e6
	pool := exec.Default()
	m["ckpt.decode_mb_s"] = mb / (sz.probe.timeOp(func() {
		if _, e := ckpt.DecodeShard(raw); e != nil {
			err = e
		}
	}) / 1e9)
	m["ckpt.encode_mb_s"] = mb / (sz.probe.timeOp(func() { probeSink += float64(len(ckpt.EncodeShard(shard, pool))) }) / 1e9)
	return err
}

// probeServe measures the run server's three fixed costs: a result
// store write, an HTTP submit round trip that ends in a store hit, and
// the time a high-priority job waits for a batch job to be preempted.
func probeServe(m map[string]float64, sz sizes, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "serve-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	slots := runtime.GOMAXPROCS(0)
	sched, err := serve.NewScheduler(serve.Options{Slots: slots, Dir: dir})
	if err != nil {
		return err
	}
	defer sched.Close()
	wait := func(sp serve.Spec) (serve.Status, error) {
		j, err := sched.Submit(sp)
		if err != nil {
			return serve.Status{}, err
		}
		<-j.Done()
		st, _ := sched.Get(j.ID, true)
		if st.State != serve.StateDone {
			return st, fmt.Errorf("probe job %s ended %s: %s", j.ID, st.State, st.Error)
		}
		return st, nil
	}

	// Store write: the stored result of a small flame job, rewritten.
	flame := flameSpec(sz.mix, 0, 3)
	st, err := wait(cloneSpec(flame))
	if err != nil {
		return err
	}
	m["serve.store_put_us"] = sz.probe.timeOp(func() {
		if e := sched.Store().Put("probe", st.Result); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}

	// HTTP submit of the same spec: a store hit, over loopback.
	srv, err := serve.Listen("127.0.0.1:0", sched)
	if err != nil {
		return err
	}
	defer srv.Close()
	body, err := json.Marshal(flame)
	if err != nil {
		return err
	}
	url := "http://" + srv.Addr() + "/jobs"
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	m["serve.http_submit_us"] = sz.probe.timeOp(func() {
		resp, e := client.Post(url, "application/json", bytes.NewReader(body))
		if e != nil {
			err = e
			return
		}
		var got serve.Status
		if e := json.NewDecoder(resp.Body).Decode(&got); e != nil || !got.CacheHit {
			err = fmt.Errorf("http submit: hit=%v status=%s decode=%v", got.CacheHit, resp.Status, e)
		}
		resp.Body.Close()
	}) / 1e3
	if err != nil {
		return err
	}

	// Preemption: a batch shock job on every slot, then a high flame.
	batch := shockSpec(sz.mix, 99, 400)
	batch.Ranks, batch.Priority = slots, "batch"
	bj, err := sched.Submit(batch)
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		if st, _ := sched.Get(bj.ID, false); st.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("batch job never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let it get into its step loop
	high := flameSpec(sz.mix, 98, 3)
	high.Priority = "high"
	t0 := time.Now()
	if _, err := wait(high); err != nil {
		return err
	}
	m["serve.preempt_latency_s"] = time.Since(t0).Seconds()
	bst, _ := sched.Get(bj.ID, false)
	if bst.Preemptions < 1 {
		return fmt.Errorf("high-priority job finished without preempting the batch job (state %s)", bst.State)
	}
	if err := sched.Cancel(bj.ID); err != nil && !strings.Contains(err.Error(), "already") {
		return err
	}
	<-bj.Done()
	return nil
}
