package main

import (
	"fmt"
	"sync"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/cvode"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
)

// sizes fixes every workload's problem size. The full sizes are tuned
// so one repetition takes about a second on the 2-CPU seed host; the
// toy sizes keep the unit-test smoke run under a few seconds.
type sizes struct {
	ignCells   int
	flameN     int // coarse cells per side
	flameSteps int
	shockNx    int // coarse cells along the tube (ny = nx/2)
	shockSteps int
	mix        mixSizes
	refSuffix  string // appended to reference.json keys
	probe      prober
}

var fullSizes = sizes{
	ignCells: 4000,
	flameN:   48, flameSteps: 4,
	shockNx: 128, shockSteps: 40,
	mix: fullMix, probe: fullProbe,
}

var toySizes = sizes{
	ignCells: 40,
	flameN:   12, flameSteps: 2,
	shockNx: 32, shockSteps: 10,
	mix: toyMix, refSuffix: ".toy", probe: toyProbe,
}

func param(inst, key string, v any) core.Param {
	return core.Param{Instance: inst, Key: key, Value: fmt.Sprint(v)}
}

func flameParams(n, steps int) []core.Param {
	return []core.Param{
		param("grace", "nx", n), param("grace", "ny", n), param("grace", "maxLevels", 2),
		param("driver", "steps", steps), param("driver", "dt", "1e-7"), param("driver", "regridEvery", 2),
	}
}

func shockParams(nx, maxSteps int) []core.Param {
	return []core.Param{
		param("grace", "nx", nx), param("grace", "ny", nx/2),
		param("grace", "lx", "2.0"), param("grace", "ly", "1.0"), param("grace", "maxLevels", 2),
		param("driver", "maxSteps", maxSteps), param("driver", "tEnd", 10), param("driver", "regridEvery", 5),
	}
}

// meshSpec is one mesh-problem repetition: which assembly, on how many
// SCMD ranks, with or without checkpointing.
type meshSpec struct {
	problem string // "flame" or "shock"
	params  []core.Param
	ranks   int
	ckpt    *core.CheckpointOptions
}

// checks are the values a repetition is verified by: integer series
// must match the reference exactly, float series to 1e-9 relative.
type checks struct {
	Ints   map[string][]int64   `json:"ints,omitempty"`
	Floats map[string][]float64 `json:"floats,omitempty"`
}

func newChecks() checks {
	return checks{Ints: map[string][]int64{}, Floats: map[string][]float64{}}
}

// meshResult is what one repetition leaves behind, all read through
// public accessors after Go returns.
type meshResult struct {
	seconds   float64 // assembly through Go return
	steps     int
	cellSteps float64
	chk       checks

	cvode      cvode.Stats // summed over ranks
	sends      int         // point-to-point messages, summed over ranks
	wordsSent  int
	virtualS   float64 // max rank virtual clock
	transfers  int     // overlap regions per ghost exchange, all levels
	ghostWords int     // outbound words per ghost exchange, all levels and ranks
	patches    int
	cellsTotal int
}

var repo = sync.OnceValue(core.Repo)

// runMesh assembles and runs one repetition. With a group, rank r's
// framework reports to group.Rank(r) — the existing public attach
// point; no span is added inside the program.
func runMesh(spec meshSpec, group *obs.Group) (*meshResult, error) {
	req := core.RunRequest{Problem: spec.problem, Params: spec.params}
	res := &meshResult{chk: newChecks()}
	var mu sync.Mutex
	body := func(f *cca.Framework, comm *mpi.Comm) error {
		rank := 0
		if comm != nil {
			rank = comm.Rank()
		}
		if group != nil {
			// The benchmark's own root span: everything from assembly to
			// Go's return on this rank's driver track.
			defer group.Rank(rank).Span(benchCat, "run")()
			f.SetObservability(group.Rank(rank))
		}
		if err := core.AssembleRequest(f, req); err != nil {
			return err
		}
		if spec.ckpt != nil {
			if err := core.WireCheckpointOpts(f, *spec.ckpt); err != nil {
				return err
			}
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return res.collect(f, comm, spec.problem, rank)
	}

	start := time.Now()
	var err error
	if spec.ranks <= 1 {
		err = body(cca.NewFramework(repo(), nil), nil)
	} else {
		r := cca.RunSCMDOn(mpi.NewWorld(spec.ranks, mpi.CPlantModel), repo(), body)
		err = r.Err()
		res.virtualS = r.MaxVirtualTime()
	}
	res.seconds = time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("%s on %d ranks: %w", spec.problem, spec.ranks, err)
	}
	return res, nil
}

// collect reads one rank's counters; rank 0 also contributes the
// statistics series the repetition is verified by.
func (res *meshResult) collect(f *cca.Framework, comm *mpi.Comm, problem string, rank int) error {
	if comm != nil {
		st := comm.Stats()
		res.sends += st.Sends
		res.wordsSent += st.WordsSent
	}
	if comp, err := f.Lookup("cvode"); err == nil {
		st := comp.(*components.CvodeComponent).TotalStats()
		res.cvode.Steps += st.Steps
		res.cvode.RHSEvals += st.RHSEvals
		res.cvode.JacEvals += st.JacEvals
		res.cvode.NewtonIters += st.NewtonIters
		res.cvode.ErrTestFails += st.ErrTestFails
	}
	comp, err := f.Lookup("grace")
	if err != nil {
		return err
	}
	mesh := comp.(components.MeshPort)
	fieldName := map[string]string{"flame": "phi", "shock": "U"}[problem]
	d := mesh.Field(fieldName)
	h := mesh.Hierarchy()
	for l := 0; l < h.NumLevels(); l++ {
		info := d.ExchangeInfo(l)
		res.ghostWords += info.SendWords
		if rank == 0 {
			res.transfers += info.Transfers
		}
	}
	if rank != 0 {
		return nil
	}
	for _, c := range h.CensusReport() {
		res.patches += c.Patches
		res.cellsTotal += c.Cells
	}
	comp, err = f.Lookup("stats")
	if err != nil {
		return err
	}
	stats := comp.(*components.StatisticsComponent)
	switch problem {
	case "flame":
		cells := stats.Get("cells")
		res.steps = len(cells)
		for _, c := range cells {
			res.cellSteps += c
			res.chk.Ints["cells"] = append(res.chk.Ints["cells"], int64(c))
		}
		res.chk.Floats["Tmax"] = stats.Get("Tmax")
		res.chk.Floats["Tmin"] = stats.Get("Tmin")
	case "shock":
		res.steps = len(stats.Get("t"))
		// The shock driver records no cells series; steps times the
		// end-of-run cell count is a fixed, deterministic proxy.
		res.cellSteps = float64(res.steps * res.cellsTotal)
		for _, k := range []string{"t", "dt", "circulation"} {
			res.chk.Floats[k] = stats.Get(k)
		}
	}
	res.chk.Ints["steps"] = []int64{int64(res.steps)}
	res.chk.Ints["cells_total"] = []int64{int64(res.cellsTotal)}
	return nil
}

// meshWorkload maps a workload name to its repetition spec and pool
// width (0 leaves the GOMAXPROCS default).
func meshWorkload(name string, sz sizes) (spec meshSpec, width int) {
	flame := meshSpec{problem: "flame", params: flameParams(sz.flameN, sz.flameSteps), ranks: 1}
	shock := meshSpec{problem: "shock", params: shockParams(sz.shockNx, sz.shockSteps), ranks: 1}
	switch name {
	case "flame_w1":
		return flame, 1
	case "flame_wN":
		return flame, 0
	case "shock_wN", "ckpt_cycle":
		return shock, 0
	case "shock_r2":
		shock.ranks = 2
		return shock, 0
	}
	panic("not a mesh workload: " + name)
}
