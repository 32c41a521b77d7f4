package core

import (
	"fmt"
	"strconv"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
)

// CheckpointOptions configures WireCheckpointOpts; the zero value of
// every field means "component default".
type CheckpointOptions struct {
	Every       int    // save cadence in driver steps (0 = off)
	Dir         string // checkpoint directory
	Restore     string // manifest path or directory ("" = cold start)
	Incremental bool   // delta shards for unchanged patches
	FullEvery   int    // force a full save after this many deltas
	Compress    bool   // gzip shard section payloads
	Keep        int    // retention: keep newest K (0 = keep all)
	KeepEvery   int    // retention: also keep every N-th step

	// Preempt is a scheduler's stop gate: when it fires, the run saves
	// a final checkpoint at its next step boundary and unwinds with
	// ckpt.ErrPreempted (nil = never preempted). Set programmatically —
	// it has no string-parameter form.
	Preempt *ckpt.Gate
}

// WireCheckpointOpts retrofits checkpointing onto an assembled
// framework: it instantiates a CheckpointComponent as "ckpt", points its
// mesh port at the assembly's MeshPort provider, and connects every
// unconnected "checkpoint" uses port (the drivers declare one) to it.
// This is the CCA promise in action — the Table 2/3 assemblies gain
// durable restart without editing a single existing wire.
func WireCheckpointOpts(f *cca.Framework, o CheckpointOptions) error {
	const inst = "ckpt"
	if o.FullEvery == 0 {
		o.FullEvery = 8
	}
	for _, kv := range [][2]string{
		{"every", strconv.Itoa(o.Every)},
		{"dir", o.Dir},
		{"restore", o.Restore},
		{"incremental", strconv.FormatBool(o.Incremental)},
		{"fullEvery", strconv.Itoa(o.FullEvery)},
		{"compress", strconv.FormatBool(o.Compress)},
		{"keep", strconv.Itoa(o.Keep)},
		{"keepEvery", strconv.Itoa(o.KeepEvery)},
	} {
		if err := f.SetParameter(inst, kv[0], kv[1]); err != nil {
			return err
		}
	}
	if err := f.Instantiate("CheckpointComponent", inst); err != nil {
		return err
	}
	if o.Preempt != nil {
		comp, err := f.Lookup(inst)
		if err != nil {
			return err
		}
		comp.(*components.CheckpointComponent).SetPreempt(o.Preempt)
	}

	// Point ckpt.mesh at the assembly's mesh provider.
	meshInst, meshPort, err := findProvider(f, components.MeshPortType)
	if err != nil {
		return fmt.Errorf("core: WireCheckpointOpts: %w", err)
	}
	if err := f.Connect(inst, "mesh", meshInst, meshPort); err != nil {
		return err
	}

	// Connect every dangling checkpoint uses port to ckpt.
	connected := make(map[[2]string]bool)
	for _, c := range f.Connections() {
		connected[[2]string{c.User, c.UsesPort}] = true
	}
	for _, name := range f.Instances() {
		uses, err := f.UsesPorts(name)
		if err != nil {
			return err
		}
		for _, u := range uses {
			if u[1] != components.CheckpointPortType || connected[[2]string{name, u[0]}] {
				continue
			}
			if err := f.Connect(name, u[0], inst, "checkpoint"); err != nil {
				return err
			}
		}
	}
	return nil
}

// findProvider locates the first instance providing a port of the given
// type, returning (instance, portName).
func findProvider(f *cca.Framework, portType string) (string, string, error) {
	for _, name := range f.Instances() {
		provides, err := f.ProvidedPorts(name)
		if err != nil {
			return "", "", err
		}
		for _, p := range provides {
			if p[1] == portType {
				return name, p[0], nil
			}
		}
	}
	return "", "", fmt.Errorf("no provider of %q in the assembly", portType)
}
