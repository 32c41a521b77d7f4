package cca

import (
	"fmt"
	"sync"

	"ccahydro/internal/mpi"
)

// SCMD (Single Component Multiple Data) execution: P identically
// configured frameworks, one per rank, each built from the same script
// or assembly function. The P instances of a given component form a
// cohort, and all message passing happens inside cohorts through the
// communicator the framework lends out — the framework itself provides
// no messaging.

// SCMDResult captures one SCMD job's outcome.
type SCMDResult struct {
	// World exposes the virtual clocks of the finished job.
	World *mpi.World
	// Errors holds the per-rank error (nil on success), indexed by rank.
	Errors []error
}

// Err returns the job's failure: a world-level fault (a killed rank —
// whose assemble never returned, so its Errors slot stays nil) takes
// precedence, then the first non-nil rank error annotated with its rank.
func (r *SCMDResult) Err() error {
	if err := r.World.Failure(); err != nil {
		return err
	}
	for rank, e := range r.Errors {
		if e != nil {
			return fmt.Errorf("cca: rank %d: %w", rank, e)
		}
	}
	return nil
}

// MaxVirtualTime is the simulated job run time (max over ranks).
func (r *SCMDResult) MaxVirtualTime() float64 { return r.World.MaxVirtualTime() }

// RunSCMD instantiates P frameworks, applies assemble to each with its
// rank-scoped communicator, and waits for all ranks. assemble typically
// parses/executes a script or calls Instantiate/Connect/Go directly.
func RunSCMD(size int, model mpi.NetworkModel, repo *Repository, assemble func(f *Framework, comm *mpi.Comm) error) *SCMDResult {
	return RunSCMDOn(mpi.NewWorld(size, model), repo, assemble)
}

// RunSCMDOn is RunSCMD over a caller-built world, so the job can be
// launched with faults injected (or clocks pre-seeded) before any rank
// starts. The world's size fixes the rank count.
func RunSCMDOn(w *mpi.World, repo *Repository, assemble func(f *Framework, comm *mpi.Comm) error) *SCMDResult {
	res := &SCMDResult{Errors: make([]error, w.Size())}
	var mu sync.Mutex
	res.World = mpi.RunOn(w, func(comm *mpi.Comm) {
		f := NewFramework(repo, comm)
		err := assemble(f, comm)
		mu.Lock()
		res.Errors[comm.Rank()] = err
		mu.Unlock()
	})
	return res
}
