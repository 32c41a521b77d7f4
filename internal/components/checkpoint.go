package components

import (
	"fmt"
	"os"
	"path/filepath"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/field"
	"ccahydro/internal/mpi"
	"ccahydro/internal/telemetry"
)

// CheckpointComponent provides the CheckpointPort: periodic durable
// snapshots of the complete simulation state and bit-exact restores.
// Its parameters are declared in checkpointSpec.
//
// Save path: the driver hands over its phase position (step, time,
// counters, series); the component snapshots the mesh geometry and
// every registered field's raw patch arrays, serializes on the exec
// pool, and enqueues shard bytes on a background writer — the next
// step's compute overlaps the IO. Rank 0 then gathers every rank's
// shard digest and enqueues the manifest that makes the checkpoint
// durable (shards without a validating manifest are ignored on load),
// followed by the retention GC pass, which therefore only ever runs
// against fully landed checkpoints.
//
// Incremental saves: each rank fingerprints every local patch's raw
// bytes (all registered fields, FNV-1a 64), keyed by patch ID, which
// names one (level, box) for the whole run. A patch is dirty when it is
// new to this rank or its fingerprint changed since the last
// checkpoint; a delta shard stores only dirty patches and names its
// parent checkpoint, so a delta may span a regrid: the patches that
// survive it stay clean. The full-vs-delta decision is
// communication-free and identical on every rank: it reads only
// replicated counters. Restore materializes the chain base-to-target.
//
// Restore path: the manifest's whole delta chain is validated first
// (ckpt.ResolveChain). Every rank then reads all shards of every link,
// reassembles the global hierarchy and field state, and re-partitions
// it onto the current cohort through the mesh's own regrid policy, so
// the restored layout is exactly what a native run at the current rank
// count would be using, whether or not that count is the writer's. A
// patch whose (level, box) was saved takes its array as-is, ghosts
// included, so a restore at the writer's rank count needs no exchange
// before the first step; Restore has the rule for the other patches and
// mergeMeta the rule for each rank's clock, comm stats and counters.
type CheckpointComponent struct {
	svc         cca.Services
	every       int
	fullEvery   int
	incremental bool
	compress    bool
	keep        ckpt.RetentionPolicy
	dir         string
	restore     string
	writer      *ckpt.Writer
	preempt     *ckpt.Gate

	// Incremental-save state. lastStep is replicated across ranks
	// (driven by replicated inputs); lastID is only maintained where
	// manifests are written (rank 0). prints maps patch ID to
	// fingerprint.
	lastStep        int
	lastID          string
	deltasSinceFull int
	prints          map[int]uint64
}

// checkpointMesh is the mesh surface the component needs: the standard
// MeshPort plus the restore/save extensions GrACEComponent implements.
type checkpointMesh interface {
	MeshPort
	FieldNames() []string
	AdoptAll(map[string]*field.DataObject) error
	RegridPolicy() (amr.LoadBalancer, amr.Workload)
}

var checkpointSpec = &Spec{
	Class: "CheckpointComponent", New: func() cca.Component { return &CheckpointComponent{} },
	Params: map[string]Param{
		"every":       iparam("0", 0, 1<<20), // cadence in driver steps; 0 = off
		"dir":         sparam("checkpoints"), // checkpoint directory
		"restore":     sparam(""),            // manifest path, or a directory = its latest valid checkpoint
		"incremental": bparam("false"),       // delta shards of the patches changed since the last save
		"fullEvery":   iparam("8", 1, 1<<20), // full save after this many deltas (bounds chains)
		"compress":    bparam("false"),       // gzip shard section payloads
		"keep":        iparam("0", 0, 1<<20), // retention: newest K; 0 = keep everything
		"keepEvery":   iparam("0", 0, 1<<20), // retention: also every N-th step
	},
	Uses:     []PortDecl{execUse, need("mesh", MeshPortType)},
	Provides: []PortDecl{prov("checkpoint", CheckpointPortType)},
}

// SetServices implements cca.Component.
func (cc *CheckpointComponent) SetServices(svc cca.Services) error {
	cc.svc = svc
	p := svc.Parameters()
	cc.every = checkpointSpec.Int(p, "every")
	cc.dir = checkpointSpec.Str(p, "dir")
	cc.restore = checkpointSpec.Str(p, "restore")
	cc.incremental = checkpointSpec.Bool(p, "incremental")
	cc.fullEvery = max(checkpointSpec.Int(p, "fullEvery"), 1)
	cc.compress = checkpointSpec.Bool(p, "compress")
	cc.keep = ckpt.RetentionPolicy{
		KeepLast:  checkpointSpec.Int(p, "keep"),
		KeepEvery: checkpointSpec.Int(p, "keepEvery"),
	}
	cc.writer = ckpt.NewWriter(svc.Observability())
	cc.lastStep = -1
	return checkpointSpec.register(svc, cc)
}

func (cc *CheckpointComponent) mesh() (checkpointMesh, error) {
	p, err := cc.svc.GetPort("mesh")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: mesh port: %w", err)
	}
	m, ok := p.(checkpointMesh)
	if !ok {
		return nil, fmt.Errorf("checkpoint: mesh provider %T lacks the restore surface", p)
	}
	return m, nil
}

func (cc *CheckpointComponent) comm() *mpi.Comm { return cc.svc.Comm() }

func (cc *CheckpointComponent) rankInfo() (rank, size int) {
	if c := cc.comm(); c != nil {
		return c.Rank(), c.Size()
	}
	return 0, 1
}

// fingerprints hashes every local patch's raw bytes across all
// registered fields (in sorted field order, chained per patch).
func (cc *CheckpointComponent) fingerprints(mesh checkpointMesh) map[int]uint64 {
	prints := map[int]uint64{}
	for _, name := range mesh.FieldNames() {
		mesh.Field(name).ForEachLocal(func(pd *field.PatchData) {
			h, ok := prints[pd.Patch.ID]
			if !ok {
				h = field.FingerprintSeed
			}
			prints[pd.Patch.ID] = pd.Fingerprint(h)
		})
	}
	return prints
}

// SetPreempt installs a scheduler's preemption gate. It cannot be a
// string parameter, so run servers set it programmatically (through
// core.CheckpointOptions) after instantiation, before Go.
func (cc *CheckpointComponent) SetPreempt(g *ckpt.Gate) { cc.preempt = g }

// preemptRequested turns the gate's asynchronous flag into a collective
// decision: rank 0's reading is broadcast, so every rank of the cohort
// agrees on the exact step the job stops at (ranks race the flag flip
// individually — one rank proceeding to step s+1 while another saves
// and unwinds at s would wedge the save's gather).
func (cc *CheckpointComponent) preemptRequested() bool {
	if cc.preempt == nil {
		return false
	}
	c := cc.comm()
	if c == nil || c.Size() == 1 {
		return cc.preempt.Requested()
	}
	v := 0.0
	if c.Rank() == 0 && cc.preempt.Requested() {
		v = 1
	}
	return c.Bcast(0, []float64{v})[0] != 0
}

// SaveIfDue implements CheckpointPort. meta.Step is the 0-based step
// just completed; the checkpoint captures the state a continuation
// would compute step meta.Step+1 from.
//
// When a preemption gate is armed, the cadence is overridden: the
// component forces a full-fidelity save at this step boundary, drains
// the async writer so the manifest is durable before anyone can look
// for it, and unwinds the run with ckpt.ErrPreempted. The scheduler
// that armed the gate resumes the job later from ckpt.LatestValid —
// elastically, if the new cohort has a different rank count.
func (cc *CheckpointComponent) SaveIfDue(meta ckpt.Meta) error {
	if cc.preemptRequested() {
		if err := cc.save(meta); err != nil {
			return err
		}
		if err := cc.writer.Flush(); err != nil {
			return err
		}
		return fmt.Errorf("checkpoint: stopped at step %d: %w", meta.Step, ckpt.ErrPreempted)
	}
	if cc.every <= 0 || (meta.Step+1)%cc.every != 0 {
		return nil
	}
	return cc.save(meta)
}

func (cc *CheckpointComponent) save(meta ckpt.Meta) error {
	o := cc.svc.Observability()
	if o != nil {
		defer o.Span("ckpt", fmt.Sprintf("save step %d", meta.Step))()
	}
	mesh, err := cc.mesh()
	if err != nil {
		return err
	}
	rank, size := cc.rankInfo()
	if c := cc.comm(); c != nil {
		s := c.Stats()
		meta.VirtualTime = c.VirtualTime()
		meta.Comm = s
	}

	// Full or delta? The inputs are replicated, so every rank decides
	// identically with no communication.
	var prints map[int]uint64
	if cc.incremental {
		prints = cc.fingerprints(mesh)
	}
	kind := ckpt.ShardFull
	if cc.incremental && cc.lastStep >= 0 && cc.deltasSinceFull < cc.fullEvery {
		kind = ckpt.ShardDelta
	}

	shard := &ckpt.Shard{
		Rank:       rank,
		NumRanks:   size,
		Kind:       kind,
		ParentStep: -1,
		Snapshot:   mesh.Hierarchy().Snapshot(),
		Meta:       meta,
	}
	if kind == ckpt.ShardDelta {
		shard.ParentStep = cc.lastStep
	}
	for _, name := range mesh.FieldNames() {
		d := mesh.Field(name)
		fs := ckpt.FieldShard{
			Name:  name,
			NComp: d.NComp,
			Ghost: d.Ghost,
			Names: append([]string(nil), d.Names...),
		}
		d.ForEachLocal(func(pd *field.PatchData) {
			if kind == ckpt.ShardDelta {
				if prev, ok := cc.prints[pd.Patch.ID]; ok && prev == prints[pd.Patch.ID] {
					return // clean: the parent chain already holds these bytes
				}
			}
			// RawData aliases live storage: EncodeShardOpts below runs
			// synchronously on the driver goroutine, before the next
			// step mutates the field, so the copy is consistent.
			fs.Patches = append(fs.Patches, ckpt.PatchBlob{ID: pd.Patch.ID, Data: pd.RawData()})
		})
		shard.Fields = append(shard.Fields, fs)
	}
	data := ckpt.EncodeShardOpts(shard, optionalPool(cc.svc), cc.compress)
	shardName := ckpt.ShardFileName(meta.Step, rank)
	cc.writer.Enqueue(filepath.Join(cc.dir, shardName), data)

	// Durability marker: rank 0 collects every shard's digest into the
	// manifest. The gather is synchronous (cheap: 2 words per rank); the
	// file writes stay asynchronous.
	newManifest := func(entries []ckpt.ManifestEntry) *ckpt.Manifest {
		m := &ckpt.Manifest{Step: meta.Step, NumRanks: size, Kind: kind, ParentStep: -1, Shards: entries}
		if kind == ckpt.ShardDelta {
			m.ParentStep = cc.lastStep
			m.ParentID = cc.lastID
		}
		m.ID = ckpt.ManifestID(m)
		return m
	}
	sizeBytes, crc := ckpt.Digest(data)
	var m *ckpt.Manifest
	if c := cc.comm(); c != nil && size > 1 {
		digests := c.Gather(0, []float64{float64(sizeBytes), float64(crc)})
		if rank == 0 {
			var entries []ckpt.ManifestEntry
			for r, dg := range digests {
				entries = append(entries, ckpt.ManifestEntry{
					File: ckpt.ShardFileName(meta.Step, r),
					Size: uint64(dg[0]),
					CRC:  uint32(dg[1]),
				})
			}
			m = newManifest(entries)
		}
	} else {
		m = newManifest([]ckpt.ManifestEntry{{File: shardName, Size: sizeBytes, CRC: crc}})
	}
	if m != nil {
		cc.writer.Enqueue(filepath.Join(cc.dir, ckpt.ManifestFileName(meta.Step)), ckpt.EncodeManifest(m))
		cc.lastID = m.ID
		// Retention rides the writer FIFO: by the time GC runs, this
		// step's shards and manifest are all durable, so the pass only
		// ever judges complete checkpoints.
		if cc.keep.Enabled() {
			dir, pol := cc.dir, cc.keep
			tel, step := cc.svc.Telemetry(), meta.Step
			cc.writer.EnqueueFunc(func() error {
				if err := ckpt.GC(dir, pol); err != nil {
					return err
				}
				tel.Emit(telemetry.EvCkptGC, step, "")
				return nil
			})
		}
	}
	if kind == ckpt.ShardDelta {
		cc.svc.Telemetry().Emit(telemetry.EvCkptSave, meta.Step, "delta")
	} else {
		cc.svc.Telemetry().Emit(telemetry.EvCkptSave, meta.Step, "full")
	}

	cc.lastStep = meta.Step
	if kind == ckpt.ShardFull {
		cc.deltasSinceFull = 0
	} else {
		cc.deltasSinceFull++
	}
	if cc.incremental {
		cc.prints = prints
	}
	return nil
}

// Flush implements CheckpointPort.
func (cc *CheckpointComponent) Flush() error { return cc.writer.Flush() }

// fieldState is one field's fully materialized global state after
// overlaying a delta chain onto its base.
type fieldState struct {
	spec  ckpt.FieldShard // Name/NComp/Ghost/Names; Patches unused
	blobs map[int][]float64
}

// blob returns the saved array of patch id.
func (st *fieldState) blob(id int) ([]float64, error) {
	b, ok := st.blobs[id]
	if !ok {
		return nil, fmt.Errorf("checkpoint: field %q has no data for saved patch %d", st.spec.Name, id)
	}
	return b, nil
}

// loadChainState reads every rank's shard of every chain link (base
// first) and materializes field state: base blobs overlaid with each
// delta's dirty patches. Every blob must name a patch of its own
// shard's snapshot; a patch ID names one (level, box) for the whole
// run, so blobs from links on either side of a regrid never collide,
// and a delta may hold patches its base never had. Returns the field
// states in base field order, the target-link Meta of each writing
// rank, and the target-link hierarchy snapshot.
func loadChainState(dir string, chain []ckpt.ChainLink) ([]*fieldState, []ckpt.Meta, amr.Snapshot, error) {
	var (
		states []*fieldState
		byName = map[string]*fieldState{}
		metas  = make([]ckpt.Meta, chain[len(chain)-1].Manifest.NumRanks)
		snap   amr.Snapshot
	)
	for li, link := range chain {
		m := link.Manifest
		for r := range metas {
			data, err := os.ReadFile(filepath.Join(dir, m.Shards[r].File))
			if err != nil {
				return nil, nil, snap, err
			}
			shard, err := ckpt.DecodeShard(data)
			if err != nil {
				return nil, nil, snap, fmt.Errorf("%s: %w", m.Shards[r].File, err)
			}
			if shard.Rank != r || shard.NumRanks != m.NumRanks {
				return nil, nil, snap, fmt.Errorf("checkpoint: shard %s is rank %d/%d, expected %d/%d",
					m.Shards[r].File, shard.Rank, shard.NumRanks, r, m.NumRanks)
			}
			if shard.Kind != m.Kind || shard.ParentStep != m.ParentStep {
				return nil, nil, snap, fmt.Errorf("checkpoint: shard %s kind %v/parent %d disagrees with manifest %v/%d",
					m.Shards[r].File, shard.Kind, shard.ParentStep, m.Kind, m.ParentStep)
			}
			if li == len(chain)-1 {
				metas[r] = shard.Meta
				if r == 0 {
					snap = shard.Snapshot
				}
			}
			saved := make(map[int]bool, len(shard.Snapshot.Patches))
			for _, p := range shard.Snapshot.Patches {
				saved[p.ID] = true
			}
			for i := range shard.Fields {
				fs := &shard.Fields[i]
				st := byName[fs.Name]
				if st == nil {
					if li > 0 {
						return nil, nil, snap, fmt.Errorf("checkpoint: delta step %d introduces field %q absent from its base", m.Step, fs.Name)
					}
					st = &fieldState{
						spec: ckpt.FieldShard{Name: fs.Name, NComp: fs.NComp, Ghost: fs.Ghost,
							Names: append([]string(nil), fs.Names...)},
						blobs: map[int][]float64{},
					}
					byName[fs.Name] = st
					states = append(states, st)
				}
				if fs.NComp != st.spec.NComp || fs.Ghost != st.spec.Ghost {
					return nil, nil, snap, fmt.Errorf("checkpoint: field %q changes shape along the chain", fs.Name)
				}
				for _, p := range fs.Patches {
					if !saved[p.ID] {
						return nil, nil, snap, fmt.Errorf("checkpoint: %s patch %d of field %q is not a patch of its snapshot",
							m.Shards[r].File, p.ID, fs.Name)
					}
					st.blobs[p.ID] = p.Data
				}
			}
		}
	}
	return states, metas, snap, nil
}

// Restore implements CheckpointPort. Returns (nil, nil) on a cold start.
//
// There is one path for every rank count. Every rank reads all P_old
// shards of the chain, reassembles the global state, and installs it
// onto the hierarchy amr.Repartition builds for the current cohort —
// the layout a native run at this rank count would be using. Each
// local patch then takes its data by one rule:
//
//   - a saved patch with the same (level, box) hands over its array
//     as-is, ghosts included (every patch at P_old = P, and every
//     refined patch at any P, since refined boxes are P-invariant);
//   - otherwise (level 0 re-decomposed for a new P) the patch is
//     stitched by region from the saved level-0 arrays: ghost-included
//     overlaps first for plausible ghost fill, then saved interiors,
//     which are authoritative, on top. A coverage check proves no
//     interior cell was invented.
//
// Ghost cells that end up merely plausible cannot leak into the run:
// every consumer refreshes ghosts before reading them, so continuation
// stays bit-for-bit with an uninterrupted run at the new rank count.
func (cc *CheckpointComponent) Restore(driver string) (*ckpt.Meta, error) {
	if cc.restore == "" {
		return nil, nil
	}
	o := cc.svc.Observability()
	if o != nil {
		defer o.Span("ckpt", "restore")()
	}
	manifestPath := cc.restore
	if fi, err := os.Stat(manifestPath); err == nil && fi.IsDir() {
		p, _, ok := ckpt.LatestValid(manifestPath)
		if !ok {
			return nil, fmt.Errorf("checkpoint: no valid checkpoint in %s", manifestPath)
		}
		manifestPath = p
	}
	chain, err := ckpt.ResolveChain(manifestPath)
	if err != nil {
		return nil, err
	}
	mesh, err := cc.mesh()
	if err != nil {
		return nil, err
	}
	states, metas, snap, err := loadChainState(filepath.Dir(manifestPath), chain)
	if err != nil {
		return nil, err
	}
	if metas[0].Driver != driver {
		return nil, fmt.Errorf("checkpoint: written by driver %q, restoring into %q", metas[0].Driver, driver)
	}
	rank, size := cc.rankInfo()
	bal, work := mesh.RegridPolicy()
	h, err := amr.Repartition(snap, size, bal, work)
	if err != nil {
		return nil, err
	}
	if cur := mesh.Hierarchy(); cur != nil && !cur.Domain.Equal(h.Domain) {
		return nil, fmt.Errorf("checkpoint: domain %v does not match assembly domain %v", h.Domain, cur.Domain)
	}

	type levelBox struct {
		level int
		box   amr.Box
	}
	byGeom := make(map[levelBox]int, len(snap.Patches)) // saved geometry -> patch ID
	for _, p := range snap.Patches {
		byGeom[levelBox{p.Level, p.Box}] = p.ID
	}
	fields := make(map[string]*field.DataObject, len(states))
	for _, st := range states {
		d := field.New(st.spec.Name, h, st.spec.NComp, st.spec.Ghost, cc.comm())
		d.Names = append([]string(nil), st.spec.Names...)
		d.SetObs(cc.svc.Observability())
		var srcs []*field.PatchData // saved level-0 arrays, built on first stitch
		restoreErr := error(nil)
		d.ForEachLocal(func(pd *field.PatchData) {
			if restoreErr != nil {
				return
			}
			if id, ok := byGeom[levelBox{pd.Patch.Level, pd.Patch.Box}]; ok {
				blob, err := st.blob(id)
				if err == nil {
					err = pd.SetRawData(blob)
				}
				restoreErr = err
				return
			}
			if pd.Patch.Level > 0 {
				restoreErr = fmt.Errorf("checkpoint: field %q has no saved patch at level %d box %v",
					st.spec.Name, pd.Patch.Level, pd.Patch.Box)
				return
			}
			if srcs == nil {
				if srcs, restoreErr = level0Sources(snap, st); restoreErr != nil {
					return
				}
			}
			for _, src := range srcs {
				pd.CopyRegion(src, src.Patch.Box.Grow(st.spec.Ghost))
			}
			remaining := []amr.Box{pd.Patch.Box}
			for _, src := range srcs {
				pd.CopyRegion(src, src.Patch.Box)
				var next []amr.Box
				for _, r := range remaining {
					next = append(next, r.Subtract(src.Patch.Box)...)
				}
				remaining = next
			}
			if len(remaining) != 0 {
				restoreErr = fmt.Errorf("checkpoint: field %q interior %v not covered by saved level 0 (missing %v)",
					st.spec.Name, pd.Patch.Box, remaining)
			}
		})
		if restoreErr != nil {
			return nil, restoreErr
		}
		fields[st.spec.Name] = d
	}
	if err := mesh.AdoptAll(fields); err != nil {
		return nil, err
	}

	meta := mergeMeta(metas, rank, size)
	if c := cc.comm(); c != nil {
		c.AdvanceVirtualTime(meta.VirtualTime)
		c.RestoreStats(meta.Comm)
	}
	cc.svc.Telemetry().Emit(telemetry.EvCkptRestore, meta.Step, filepath.Base(manifestPath))
	return &meta, nil
}

// level0Sources wraps a field's saved level-0 arrays as patch data, the
// sources a re-decomposed level-0 patch is stitched from.
func level0Sources(snap amr.Snapshot, st *fieldState) ([]*field.PatchData, error) {
	var srcs []*field.PatchData
	for _, p := range snap.Patches {
		if p.Level != 0 {
			continue
		}
		blob, err := st.blob(p.ID)
		if err != nil {
			return nil, err
		}
		src := field.NewPatchData(&amr.Patch{ID: p.ID, Level: 0, Box: p.Box}, st.spec.NComp, st.spec.Ghost)
		if err := src.SetRawData(blob); err != nil {
			return nil, err
		}
		srcs = append(srcs, src)
	}
	return srcs, nil
}

// mergeMeta picks this rank's restored Meta from the P_old saved ones —
// the only place the restore compares P_old with P. At P_old = P each
// rank resumes its own saved virtual clock, comm stats and counters.
// Otherwise the phase position (step, time, series), which is
// replicated, comes from shard 0; the clock is the latest rank's;
// per-rank counters cannot be split across a different cohort, so
// their totals land on rank 0; comm stats follow each surviving rank,
// and ranks beyond P_old start clean.
func mergeMeta(metas []ckpt.Meta, rank, size int) ckpt.Meta {
	pOld := len(metas)
	if pOld == size {
		return metas[rank]
	}
	meta := metas[0]
	vt := 0.0
	counters := map[string]float64{}
	for _, m := range metas {
		if m.VirtualTime > vt {
			vt = m.VirtualTime
		}
		for k, v := range m.Counters {
			counters[k] += v
		}
	}
	meta.VirtualTime = vt
	if rank == 0 {
		meta.Counters = counters
	} else {
		meta.Counters = map[string]float64{}
	}
	if rank < pOld {
		meta.Comm = metas[rank].Comm
	} else {
		meta.Comm = mpi.CommStats{}
	}
	return meta
}
