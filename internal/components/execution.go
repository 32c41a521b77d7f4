package components

import (
	"ccahydro/internal/cca"
	"ccahydro/internal/exec"
)

// ExecutionComponent provides the worker pool behind every
// patch-parallel and cell-parallel loop in the repo. It is the CCA
// face of internal/exec: assemblies that want explicit control over
// intra-rank parallelism instantiate it, set the "workers" parameter,
// and connect it to the drivers' and integrators' optional "exec" uses
// ports. The pool is created lazily on first Pool() call so that
// instantiating the component costs nothing.
//
// Parameters:
//
//	workers — pool width (max concurrent kernels). 0 or unset means
//	          runtime.GOMAXPROCS(0); SCMD rank-parallel assemblies pin
//	          it to 1 so the rank goroutines are the only parallelism.
type ExecutionComponent struct {
	svc  cca.Services
	pool *exec.Pool
}

var _ ExecutionPort = (*ExecutionComponent)(nil)

var executionSpec = &Spec{
	Class: "ExecutionComponent", New: func() cca.Component { return &ExecutionComponent{} },
	Params:   map[string]Param{"workers": iparam("0", 0, 1024)},
	Provides: []PortDecl{prov("exec", ExecutionPortType)},
}

func (ec *ExecutionComponent) SetServices(svc cca.Services) error {
	ec.svc = svc
	return executionSpec.register(svc, ec)
}

// Pool returns the component's pool, creating it on first use from the
// "workers" parameter. Width 0 (or no parameter) delegates to the
// process default so an unparameterized ExecutionComponent behaves
// exactly like an unconnected exec port.
func (ec *ExecutionComponent) Pool() *exec.Pool {
	if ec.pool == nil {
		w := 0
		if ec.svc != nil {
			w = executionSpec.Int(ec.svc.Parameters(), "workers")
		}
		if w <= 0 {
			ec.pool = exec.Default()
		} else {
			ec.pool = exec.NewPool(w)
			// Private pools can carry the framework's tracer (the
			// shared default pool serves every rank, so per-rank
			// worker tracks would interleave there) and feed the
			// epoch-join tail into the pool_epoch_wait histogram.
			if ec.svc != nil {
				if o := ec.svc.Observability(); o != nil {
					ec.pool.SetTracer(o.Tracer())
					ec.pool.SetEpochWaitHistogram(o.Metrics().Histogram("pool_epoch_wait"))
				}
			}
		}
	}
	return ec.pool
}

// optionalPool resolves a component's optional "exec" uses port,
// falling back to the process-wide default pool when the port is
// unconnected (the standard paper assemblies, which predate the
// ExecutionComponent, keep working unchanged and still parallelize).
func optionalPool(svc cca.Services) *exec.Pool {
	if svc != nil {
		if p, err := svc.GetPort("exec"); err == nil {
			ep, ok := p.(ExecutionPort)
			svc.ReleasePort("exec")
			if ok {
				return ep.Pool()
			}
		}
	}
	return exec.Default()
}
