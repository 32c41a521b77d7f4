package components

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/field"
)

// GrACEComponent is the componentized SAMR data manager (the paper
// wraps the GrACE library the same way): it accommodates the Mesh,
// Data Object, and (default) Boundary Condition subsystems.
type GrACEComponent struct {
	svc cca.Services

	mu        sync.Mutex
	h         *amr.Hierarchy
	fields    map[string]*field.DataObject
	lx, ly    float64
	regridOpt amr.RegridOptions
}

var graceSpec = &Spec{
	Class: "GrACEComponent", New: func() cca.Component { return &GrACEComponent{} },
	Params: map[string]Param{
		"nx":            iparam("100", 4, 4096), // coarse mesh cells
		"ny":            iparam("100", 4, 4096),
		"lx":            fparam("0.01", 1e-12, 1e12), // domain size in meters: the paper's 10 mm square
		"ly":            fparam("0.01", 1e-12, 1e12),
		"ratio":         iparam("2", 2, 4),         // refinement ratio
		"maxLevels":     iparam("3", 1, 8),         // hierarchy depth cap
		"maxPatchCells": iparam("4096", 16, 1<<20), // patch split threshold
	},
	// Optional: a load-balancer component may be wired in to replace
	// the default greedy policy (paper future work: load-balancer
	// interfaces). Unconnected is fine.
	Uses: []PortDecl{use("balancer", BalancerPortType)},
	Provides: []PortDecl{
		prov("bc", BCPortType), prov("mesh", MeshPortType),
	},
}

// SetServices implements cca.Component.
func (gc *GrACEComponent) SetServices(svc cca.Services) error {
	gc.svc = svc
	p := svc.Parameters()
	nx := graceSpec.Int(p, "nx")
	ny := graceSpec.Int(p, "ny")
	gc.lx = graceSpec.Float(p, "lx")
	gc.ly = graceSpec.Float(p, "ly")
	ratio := graceSpec.Int(p, "ratio")
	maxLevels := graceSpec.Int(p, "maxLevels")
	ranks := 1
	if comm := svc.Comm(); comm != nil {
		ranks = comm.Size()
	}
	gc.h = amr.NewHierarchy(amr.NewBox(0, 0, nx-1, ny-1), ratio, maxLevels, ranks)
	gc.fields = make(map[string]*field.DataObject)
	gc.regridOpt = amr.DefaultRegridOptions
	gc.regridOpt.MaxPatchCells = graceSpec.Int(p, "maxPatchCells")
	return graceSpec.register(svc, gc, gc)
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
	return d
}

// Field implements MeshPort.
func (gc *GrACEComponent) Field(name string) *field.DataObject {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.fields[name]
}

// Regrid implements MeshPort: replace the hierarchy with its successor
// from amr.Hierarchy.Regrid and remap every declared field onto it
// (prolongation where no old data overlaps). Collective across the
// cohort.
func (gc *GrACEComponent) Regrid(flags []*amr.FlagField, opt amr.RegridOptions) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if o := gc.svc.Observability(); o != nil {
		defer o.Span("samr", "regrid")()
	}
	if opt.Cluster.Efficiency == 0 {
		opt = gc.regridOpt
	}
	gc.h.Balancer = gc.balancer()
	newH := gc.h.Regrid(flags, opt)
	for name, d := range gc.fields {
		gc.fields[name] = d.Remap(newH, field.ProlongLinear)
	}
	gc.h = newH
}

// RegridPolicy reports the load balancer and workload estimator the
// next Regrid would use. Elastic restore repartitions a checkpointed
// hierarchy through this same policy so the restored layout is exactly
// the one a native run at the new rank count would be using.
func (gc *GrACEComponent) RegridPolicy() (amr.LoadBalancer, amr.Workload) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.balancer(), gc.regridOpt.Workload
}

// balancer is the wired balancer port when present, else the
// hierarchy's own. The caller holds gc.mu.
func (gc *GrACEComponent) balancer() amr.LoadBalancer {
	if p, err := gc.svc.GetPort("balancer"); err == nil {
		gc.svc.ReleasePort("balancer")
		return p.(BalancerPort)
	}
	return gc.h.Balancer
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

// outflowBC is the mesh's boundary rule for every field; problems that
// need walls wire the hydro BoundaryConditions component instead.
var outflowBC = field.UniformBC(field.BCSpec{Kind: field.BCOutflow})

// Apply implements BCPort with the outflow rule.
func (gc *GrACEComponent) Apply(name string, level int) {
	gc.mu.Lock()
	d := gc.fields[name]
	gc.mu.Unlock()
	d.ApplyPhysicalBCs(level, outflowBC)
}

// AdoptAll installs a restored hierarchy and complete field set — the
// checkpoint-restore path. All fields must share one hierarchy. No BC
// application is needed before the first step: every consumer refreshes
// ghosts before reading them.
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
	gc.fields = maps.Clone(fields)
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
