package components

import (
	"fmt"
	"sort"
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/field"
)

// GrACEComponent is the componentized SAMR data manager (the paper
// wraps the GrACE library the same way): it accommodates the Mesh,
// Data Object, and (default) Boundary Condition subsystems. Parameters:
//
//	nx, ny        coarse mesh cells (default 100 x 100)
//	lx, ly        physical domain size in meters (default 0.01, the
//	              paper's 10 mm square)
//	ratio         refinement ratio (default 2)
//	maxLevels     hierarchy depth cap (default 3)
//	maxPatchCells patch split threshold (default 4096)
type GrACEComponent struct {
	svc cca.Services

	mu        sync.Mutex
	h         *amr.Hierarchy
	fields    map[string]*field.DataObject
	bcs       map[string]field.BCSet
	lx, ly    float64
	regridOpt amr.RegridOptions
}

// SetServices implements cca.Component.
func (gc *GrACEComponent) SetServices(svc cca.Services) error {
	gc.svc = svc
	p := svc.Parameters()
	nx := p.GetInt("nx", 100)
	ny := p.GetInt("ny", 100)
	gc.lx = p.GetFloat("lx", 0.01)
	gc.ly = p.GetFloat("ly", 0.01)
	ratio := p.GetInt("ratio", 2)
	maxLevels := p.GetInt("maxLevels", 3)
	ranks := 1
	if comm := svc.Comm(); comm != nil {
		ranks = comm.Size()
	}
	gc.h = amr.NewHierarchy(amr.NewBox(0, 0, nx-1, ny-1), ratio, maxLevels, ranks)
	gc.fields = make(map[string]*field.DataObject)
	gc.bcs = make(map[string]field.BCSet)
	gc.regridOpt = amr.DefaultRegridOptions
	gc.regridOpt.MaxPatchCells = p.GetInt("maxPatchCells", 4096)
	// Optional: a load-balancer component may be wired in to replace
	// the default greedy policy (paper future work: load-balancer
	// interfaces). Unconnected is fine.
	if err := svc.RegisterUsesPort("balancer", BalancerPortType); err != nil {
		return err
	}
	if err := svc.AddProvidesPort(gc, "mesh", MeshPortType); err != nil {
		return err
	}
	if err := svc.AddProvidesPort(gc, "data", DataPortType); err != nil {
		return err
	}
	return svc.AddProvidesPort(gc, "bc", BCPortType)
}

// Hierarchy implements MeshPort.
func (gc *GrACEComponent) Hierarchy() *amr.Hierarchy {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.h
}

// Declare implements MeshPort.
func (gc *GrACEComponent) Declare(name string, ncomp, ghost int) *field.DataObject {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if d, ok := gc.fields[name]; ok {
		return d
	}
	d := field.New(name, gc.h, ncomp, ghost, gc.svc.Comm())
	d.SetObs(gc.svc.Observability())
	gc.fields[name] = d
	gc.bcs[name] = field.UniformBC(field.BCSpec{Kind: field.BCOutflow})
	return d
}

// Field implements MeshPort.
func (gc *GrACEComponent) Field(name string) *field.DataObject {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.fields[name]
}

// SetBCSet overrides the boundary rule for a declared field (used by
// the hydro BoundaryConditions component to install reflecting walls).
func (gc *GrACEComponent) SetBCSet(name string, bcs field.BCSet) error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if _, ok := gc.fields[name]; !ok {
		return fmt.Errorf("grace: field %q not declared", name)
	}
	gc.bcs[name] = bcs
	return nil
}

// Regrid implements MeshPort: rebuild the hierarchy from flags and
// remap every declared field onto it (prolongation where no old data
// overlaps). Collective across the cohort.
func (gc *GrACEComponent) Regrid(flags []*amr.FlagField, opt amr.RegridOptions) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if o := gc.svc.Observability(); o != nil {
		defer o.Span("samr", "regrid")()
	}
	if opt.Cluster.Efficiency == 0 {
		opt = gc.regridOpt
	}
	// Build the new hierarchy alongside the old one so data can move.
	newH := amr.NewHierarchy(gc.h.Domain, gc.h.Ratio, gc.h.MaxLevels, gc.h.NumRanks)
	newH.Balancer = gc.h.Balancer
	if p, err := gc.svc.GetPort("balancer"); err == nil {
		newH.Balancer = p.(BalancerPort)
		gc.svc.ReleasePort("balancer")
	}
	newH.Regrids = gc.h.Regrids
	newH.Regrid(flags, opt)
	for name, d := range gc.fields {
		gc.fields[name] = d.Remap(newH, field.ProlongLinear)
	}
	gc.h = newH
}

// RegridPolicy reports the load balancer and workload estimator the
// next Regrid would use (the wired balancer port when present, else the
// hierarchy's own). Elastic restore repartitions a checkpointed
// hierarchy through this same policy so the restored layout is exactly
// the one a native run at the new rank count would be using.
func (gc *GrACEComponent) RegridPolicy() (amr.LoadBalancer, amr.Workload) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	bal := gc.h.Balancer
	if p, err := gc.svc.GetPort("balancer"); err == nil {
		bal = p.(BalancerPort)
		gc.svc.ReleasePort("balancer")
	}
	return bal, gc.regridOpt.Workload
}

// Spacing implements MeshPort.
func (gc *GrACEComponent) Spacing(level int) (float64, float64) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	nx, ny := gc.h.Domain.Size()
	dx0 := gc.lx / float64(nx)
	dy0 := gc.ly / float64(ny)
	return amr.MeshSpacing(dx0, gc.h.Ratio, level), amr.MeshSpacing(dy0, gc.h.Ratio, level)
}

// ExchangeGhosts implements DataPort.
func (gc *GrACEComponent) ExchangeGhosts(name string, level int) {
	gc.Field(name).ExchangeGhosts(level)
}

// FillCoarseFineGhosts implements DataPort.
func (gc *GrACEComponent) FillCoarseFineGhosts(name string, level int) {
	gc.Field(name).FillCoarseFineGhosts(level, field.ProlongLinear)
}

// Restrict implements DataPort.
func (gc *GrACEComponent) Restrict(name string, level int) {
	gc.Field(name).RestrictLevel(level)
}

// ProlongNewLevel implements DataPort.
func (gc *GrACEComponent) ProlongNewLevel(name string, level int) {
	gc.Field(name).ProlongLevel(level, field.ProlongLinear)
}

// Apply implements BCPort with the per-field rule (default outflow).
func (gc *GrACEComponent) Apply(name string, level int) {
	gc.mu.Lock()
	bcs := gc.bcs[name]
	d := gc.fields[name]
	gc.mu.Unlock()
	d.ApplyPhysicalBCs(level, bcs)
}

// AdoptAll installs a restored hierarchy and complete field set — the
// checkpoint-restore path. All fields must share one hierarchy. Default
// outflow BCs are installed; components that override BCs (the hydro
// BoundaryConditions component) re-apply their rules on first use, and
// the restored arrays already contain fully exchanged ghosts, so no BC
// application is needed before the first step anyway.
func (gc *GrACEComponent) AdoptAll(fields map[string]*field.DataObject) error {
	if len(fields) == 0 {
		return fmt.Errorf("grace: AdoptAll with no fields")
	}
	var h *amr.Hierarchy
	for _, d := range fields {
		if h == nil {
			h = d.Hierarchy()
		} else if d.Hierarchy() != h {
			return fmt.Errorf("grace: AdoptAll fields disagree on hierarchy")
		}
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gc.h = h
	gc.fields = make(map[string]*field.DataObject, len(fields))
	gc.bcs = make(map[string]field.BCSet, len(fields))
	for name, d := range fields {
		gc.fields[name] = d
		gc.bcs[name] = field.UniformBC(field.BCSpec{Kind: field.BCOutflow})
	}
	return nil
}

// FieldNames lists the declared fields in sorted order — the checkpoint
// writer's iteration set.
func (gc *GrACEComponent) FieldNames() []string {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	names := make([]string, 0, len(gc.fields))
	for name := range gc.fields {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FillAllGhosts performs the full ghost protocol for one level: physical
// BCs, coarse–fine interpolation, then same-level exchange (which
// overrides interpolated ghosts wherever real neighbors exist).
func (gc *GrACEComponent) FillAllGhosts(name string, level int) {
	if level > 0 {
		gc.Apply(name, level-1)
		gc.FillCoarseFineGhosts(name, level)
	}
	gc.ExchangeGhosts(name, level)
	gc.Apply(name, level)
}
