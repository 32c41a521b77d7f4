package components

import (
	"fmt"
	"math"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/mpi"
)

// ErrorEstAndRegrid estimates gradients at each cell and flags regions
// for refinement or coarsening, then triggers a hierarchy rebuild
// (paper Secs. 4.2/4.3 — reused by both the flame and the shock
// assemblies).
type ErrorEstAndRegrid struct {
	svc cca.Services
}

var regridSpec = &Spec{
	Class: "ErrorEstAndRegrid", New: func() cca.Component { return &ErrorEstAndRegrid{} },
	Params: map[string]Param{
		"threshold": fparam("0.08", 0, 1e6), // scaled-gradient flag threshold
		"comp":      iparam("0", 0, 64),     // field component to monitor (T or rho)
		"buffer":    iparam("2", 0, 64),     // flag buffer cells
	},
	Provides: []PortDecl{prov("regrid", RegridPortType)},
}

// SetServices implements cca.Component.
func (er *ErrorEstAndRegrid) SetServices(svc cca.Services) error {
	er.svc = svc
	return regridSpec.register(svc, er)
}

// EstimateAndRegrid implements RegridPort. The error indicator is the
// normalized undivided gradient |Δφ| / (max φ − min φ) per level. All
// ranks flag their local patches; the flag fields are unioned across
// the cohort (allreduce of the bitmap) so the regrid is identical
// everywhere.
func (er *ErrorEstAndRegrid) EstimateAndRegrid(mesh MeshPort, name string) bool {
	p := er.svc.Parameters()
	threshold := regridSpec.Float(p, "threshold")
	comp := regridSpec.Int(p, "comp")
	buffer := regridSpec.Int(p, "buffer")

	d := mesh.Field(name)
	h := d.Hierarchy()
	comm := er.svc.Comm()

	// Global range of the monitored component for normalization.
	lo, hi := math.Inf(1), math.Inf(-1)
	for l := 0; l < h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for i := b.Lo[0]; i <= b.Hi[0]; i++ {
					v := pd.At(comp, i, j)
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
		}
	}
	if comm != nil && comm.Size() > 1 {
		lo = comm.AllreduceScalar(mpi.OpMin, lo)
		hi = comm.AllreduceScalar(mpi.OpMax, hi)
	}
	rng := hi - lo
	if rng <= 0 || math.IsInf(rng, 0) {
		return false
	}

	maxFlagLevel := h.NumLevels()
	if maxFlagLevel > h.MaxLevels-1 {
		maxFlagLevel = h.MaxLevels - 1
	}
	flags := make([]*amr.FlagField, maxFlagLevel)
	for l := 0; l < maxFlagLevel; l++ {
		ff := amr.NewFlagField(h.LevelDomain(l))
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for j := b.Lo[1]; j <= b.Hi[1]; j++ {
				for i := b.Lo[0]; i <= b.Hi[0]; i++ {
					c := pd.At(comp, i, j)
					g := math.Max(
						math.Max(math.Abs(pd.At(comp, i+1, j)-c), math.Abs(c-pd.At(comp, i-1, j))),
						math.Max(math.Abs(pd.At(comp, i, j+1)-c), math.Abs(c-pd.At(comp, i, j-1))),
					)
					if g/rng > threshold {
						ff.Set(i, j)
					}
				}
			}
		}
		if comm != nil && comm.Size() > 1 {
			unionFlags(comm, ff)
		}
		ff.Buffer(buffer)
		flags[l] = ff
	}

	before := censusKey(h)
	mesh.Regrid(flags, amr.RegridOptions{})
	return censusKey(mesh.Hierarchy()) != before
}

// unionFlags ORs a flag field across the cohort by allreducing its
// bitmap as 0/1 floats (max = OR).
func unionFlags(comm *mpi.Comm, ff *amr.FlagField) {
	b := ff.Box
	nx, ny := b.Size()
	buf := make([]float64, nx*ny)
	k := 0
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			if ff.Get(i, j) {
				buf[k] = 1
			}
			k++
		}
	}
	out := comm.Allreduce(mpi.OpMax, buf)
	k = 0
	for j := b.Lo[1]; j <= b.Hi[1]; j++ {
		for i := b.Lo[0]; i <= b.Hi[0]; i++ {
			if out[k] > 0 {
				ff.Set(i, j)
			}
			k++
		}
	}
}

func censusKey(h *amr.Hierarchy) string {
	key := ""
	for _, c := range h.CensusReport() {
		key += fmt.Sprintf("L%d:%d:%d;", c.Level, c.Patches, c.Cells)
	}
	return key
}
