// Package field implements the paper's Data Object subsystem: named,
// multi-component arrays declared on the patches of an AMR hierarchy,
// one array per patch, with ghost-cell exchange, coarse–fine transfer
// (prolongation/restriction), physical boundary fills, and data
// migration across regrids. Packing and unpacking of data before and
// after message passing — which the paper assigns to this subsystem —
// happens here, over the mpi substrate. Ghost exchange, coarse–fine
// transfer and regrid remap are phases of one copy schedule
// (schedule.go): cached transfer lists, coalesced per-peer messages,
// one Start/Finish handle.
package field

import (
	"fmt"
	"strconv"

	"ccahydro/internal/amr"
	"ccahydro/internal/mpi"
	"ccahydro/internal/obs"
)

// PatchData is the storage for one patch: NComp components over the
// patch box grown by Ghost cells, in component-major, row-major order.
type PatchData struct {
	Patch *amr.Patch
	NComp int
	Ghost int

	gbox   amr.Box
	nx, ny int // grown extents
	data   []float64
}

// NewPatchData allocates zeroed storage for a patch.
func NewPatchData(p *amr.Patch, ncomp, ghost int) *PatchData {
	g := p.Box.Grow(ghost)
	nx, ny := g.Size()
	return &PatchData{
		Patch: p, NComp: ncomp, Ghost: ghost,
		gbox: g, nx: nx, ny: ny,
		data: make([]float64, ncomp*nx*ny),
	}
}

// Interior returns the patch's interior box (no ghosts).
func (pd *PatchData) Interior() amr.Box { return pd.Patch.Box }

// GrownBox returns the storage box including ghost cells.
func (pd *PatchData) GrownBox() amr.Box { return pd.gbox }

func (pd *PatchData) idx(c, i, j int) int {
	return c*pd.nx*pd.ny + (j-pd.gbox.Lo[1])*pd.nx + (i - pd.gbox.Lo[0])
}

// At reads component c at cell (i, j); the cell must lie in the grown box.
func (pd *PatchData) At(c, i, j int) float64 { return pd.data[pd.idx(c, i, j)] }

// Set writes component c at cell (i, j).
func (pd *PatchData) Set(c, i, j int, v float64) { pd.data[pd.idx(c, i, j)] = v }

// Add accumulates into component c at cell (i, j).
func (pd *PatchData) Add(c, i, j int, v float64) { pd.data[pd.idx(c, i, j)] += v }

// Comp returns the raw plane of one component (row-major over the grown
// box); Stride returns the row stride for index arithmetic.
func (pd *PatchData) Comp(c int) []float64 {
	return pd.data[c*pd.nx*pd.ny : (c+1)*pd.nx*pd.ny]
}

// Stride is the row length of a component plane.
func (pd *PatchData) Stride() int { return pd.nx }

// Offset converts a (i, j) cell to a plane index.
func (pd *PatchData) Offset(i, j int) int {
	return (j-pd.gbox.Lo[1])*pd.nx + (i - pd.gbox.Lo[0])
}

// CopyRegion copies all components of region (cell coordinates shared
// by both patches' level) from src into pd.
func (pd *PatchData) CopyRegion(src *PatchData, region amr.Box) {
	r := region.Intersect(pd.gbox).Intersect(src.gbox)
	if r.Empty() {
		return
	}
	if src.NComp != pd.NComp {
		panic("field: component count mismatch in CopyRegion")
	}
	for c := 0; c < pd.NComp; c++ {
		for j := r.Lo[1]; j <= r.Hi[1]; j++ {
			srcRow := src.Comp(c)[src.Offset(r.Lo[0], j) : src.Offset(r.Hi[0], j)+1]
			dstRow := pd.Comp(c)[pd.Offset(r.Lo[0], j) : pd.Offset(r.Hi[0], j)+1]
			copy(dstRow, srcRow)
		}
	}
}

// packAppend serializes all components of region onto buf. It refuses
// out-of-storage regions instead of clipping: coalesced messages
// require sender and receiver to agree on exact sizes computed from
// replicated metadata.
func (pd *PatchData) packAppend(region amr.Box, buf []float64) []float64 {
	if !pd.gbox.ContainsBox(region) {
		panic(fmt.Sprintf("field: pack region %v outside storage %v", region, pd.gbox))
	}
	for c := 0; c < pd.NComp; c++ {
		for j := region.Lo[1]; j <= region.Hi[1]; j++ {
			row := pd.Comp(c)[pd.Offset(region.Lo[0], j) : pd.Offset(region.Hi[0], j)+1]
			buf = append(buf, row...)
		}
	}
	return buf
}

// unpack deserializes a buffer produced by packAppend over the same
// region.
func (pd *PatchData) unpack(region amr.Box, buf []float64) {
	r := region.Intersect(pd.gbox)
	nx, ny := r.Size()
	if len(buf) != pd.NComp*nx*ny {
		panic(fmt.Sprintf("field: unpack length %d != %d", len(buf), pd.NComp*nx*ny))
	}
	k := 0
	for c := 0; c < pd.NComp; c++ {
		for j := r.Lo[1]; j <= r.Hi[1]; j++ {
			row := pd.Comp(c)[pd.Offset(r.Lo[0], j) : pd.Offset(r.Hi[0], j)+1]
			copy(row, buf[k:k+nx])
			k += nx
		}
	}
}

// DataObject is a named collection of per-patch arrays distributed over
// the hierarchy's ranks. Metadata (which patches exist, who owns them)
// is replicated; data exists only on the owner.
type DataObject struct {
	Name  string
	NComp int
	Ghost int
	// Names optionally labels components (diagnostics).
	Names []string

	h    *amr.Hierarchy
	comm *mpi.Comm // nil means serial
	rank int

	local map[int]*PatchData // patch ID -> data, owned patches only

	// sched caches the ghost, shadow and restrict transfer schedules
	// per (phase, level); builds counts constructions per phase. A
	// DataObject's hierarchy never changes (a regrid remaps onto a new
	// object over the successor), so a cached entry never goes stale.
	sched  map[schedKey]*schedule
	builds [phaseRemap + 1]int

	// patches caches LocalPatches per level, by the same rule.
	patches map[int][]*PatchData

	// obs, when non-nil, receives spans for the object's exchange and
	// transfer phases. Every hot path guards on the pointer, so a nil
	// obs adds no work.
	obs *obs.Obs
}

// SetObs attaches an observability session to this object; transfers
// and ghost exchanges then emit tracer spans. nil detaches.
func (d *DataObject) SetObs(o *obs.Obs) { d.obs = o }

// spanName labels a per-level phase span without fmt overhead.
func spanName(op string, level int) string {
	return op + " L" + strconv.Itoa(level)
}

// New allocates a DataObject over h's current patches. comm may be nil
// for serial use; then all patches are local.
func New(name string, h *amr.Hierarchy, ncomp, ghost int, comm *mpi.Comm) *DataObject {
	d := &DataObject{
		Name: name, NComp: ncomp, Ghost: ghost,
		h: h, comm: comm,
		local: make(map[int]*PatchData),
	}
	if comm != nil {
		d.rank = comm.Rank()
	}
	d.allocate()
	return d
}

func (d *DataObject) owns(p *amr.Patch) bool {
	return d.comm == nil || p.Owner == d.rank
}

func (d *DataObject) allocate() {
	for l := 0; l < d.h.NumLevels(); l++ {
		for _, p := range d.h.Level(l).Patches {
			if d.owns(p) {
				d.local[p.ID] = NewPatchData(p, d.NComp, d.Ghost)
			}
		}
	}
}

// Hierarchy returns the mesh this object is declared on.
func (d *DataObject) Hierarchy() *amr.Hierarchy { return d.h }

// LocalPatches returns owned patch data on a level, in patch order.
// The list is built once and shared by every caller, so callers must
// not modify it.
func (d *DataObject) LocalPatches(level int) []*PatchData {
	if list, ok := d.patches[level]; ok {
		return list
	}
	var out []*PatchData
	for _, p := range d.h.Level(level).Patches {
		if pd := d.local[p.ID]; pd != nil {
			out = append(out, pd)
		}
	}
	if d.patches == nil {
		d.patches = make(map[int][]*PatchData)
	}
	d.patches[level] = out
	return out
}

// ForEachLocal applies fn to every owned patch on every level,
// coarsest first.
func (d *DataObject) ForEachLocal(fn func(*PatchData)) {
	for l := 0; l < d.h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			fn(pd)
		}
	}
}

// ExchangeGhosts fills the ghost cells of every patch on a level from
// overlapping same-level neighbors, using the cached coalesced schedule.
// All ranks must call it (collective).
func (d *DataObject) ExchangeGhosts(level int) {
	d.ExchangeGhostsStart(level).Finish()
}
