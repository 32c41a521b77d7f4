package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
)

// ---- Checkpoint delta-chain study -------------------------------------
//
// Measures what incremental checkpointing saves: each case writes full
// and incremental checkpoints every step, compares the shard bytes at a
// steady-state step, then restores through the delta chain and checks
// the result against an uninterrupted run. Every value in the JSON
// artifact is deterministic — byte counts come from the self-describing
// shard encoding (bit-exact fields, virtual-clock metadata) and the
// bit-for-bit flag from exact float comparison. Wall-clock write/
// restore timings go to stdout only. Plain and supervised restores are
// checked bit for bit by the internal/core tests, not here.

// CkptCase is one configuration's result.
type CkptCase struct {
	Name        string
	Driver      string
	Ranks       int
	Steps       int
	Every       int
	RestoreStep int
	Checkpoints int    // durable checkpoints on disk after the run
	ShardBytes  uint64 // total shard bytes of the restored checkpoint
	ManifestLen uint64 // manifest file size in bytes
	Patches     int    // hierarchy patches in the restored snapshot
	Cells       int    // composite cells in the restored snapshot
	BitForBit   bool   // restored run == uninterrupted run, exactly

	Incremental   bool
	ChainLen      int     // delta-chain links behind the restored checkpoint
	BaselineBytes uint64  // full shard bytes at the steady-state step
	ReducedBytes  uint64  // delta shard bytes at the same step
	SavingsX      float64 // BaselineBytes / ReducedBytes
}

// CkptReport is the BENCH_ckpt.json artifact.
type CkptReport struct {
	Cases []CkptCase
}

// fieldBits flattens a field's interior cells rank-locally (the same
// scan the core determinism tests use).
func fieldBits(f *cca.Framework, name string) ([]float64, error) {
	comp, err := f.Lookup("grace")
	if err != nil {
		return nil, err
	}
	gc := comp.(*components.GrACEComponent)
	d := gc.Field(name)
	if d == nil {
		return nil, fmt.Errorf("bench: field %q not declared", name)
	}
	h := gc.Hierarchy()
	var out []float64
	for l := 0; l < h.NumLevels(); l++ {
		for _, pd := range d.LocalPatches(l) {
			b := pd.Interior()
			for c := 0; c < d.NComp; c++ {
				for j := b.Lo[1]; j <= b.Hi[1]; j++ {
					for i := b.Lo[0]; i <= b.Hi[0]; i++ {
						out = append(out, pd.At(c, i, j))
					}
				}
			}
		}
	}
	return out, nil
}

// inspectManifest fills the size/shape columns from the durable files.
func inspectManifest(c *CkptCase, dir string, step int) error {
	path := filepath.Join(dir, ckpt.ManifestFileName(step))
	m, err := ckpt.ReadManifest(path)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	c.ManifestLen = uint64(fi.Size())
	for _, s := range m.Shards {
		c.ShardBytes += s.Size
	}
	data, err := os.ReadFile(filepath.Join(dir, m.Shards[0].File))
	if err != nil {
		return err
	}
	shard, err := ckpt.DecodeShard(data)
	if err != nil {
		return err
	}
	h, err := amr.FromSnapshot(shard.Snapshot)
	if err != nil {
		return err
	}
	c.Patches = len(shard.Snapshot.Patches)
	c.Cells = h.TotalCells()
	manifests, _ := filepath.Glob(filepath.Join(dir, "*.manifest"))
	c.Checkpoints = len(manifests)
	return nil
}

// ckptSpec is one study configuration: the row's fixed columns plus the
// built-in problem, its parameters, the field compared bit for bit, and
// the steady-state step whose shard bytes are compared.
type ckptSpec struct {
	CkptCase
	problem    string
	field      string
	params     []core.Param
	steadyStep int
}

// runCkptRanks runs one built-in problem on a fresh world with
// checkpointing wired, returning each rank's final field bits.
func runCkptRanks(c ckptSpec, o core.CheckpointOptions) ([][]float64, error) {
	var mu sync.Mutex
	ranks := make([][]float64, c.Ranks)
	res := cca.RunSCMDOn(mpi.NewWorld(c.Ranks, mpi.CPlantModel), core.Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := core.AssembleRequest(f, core.RunRequest{Problem: c.problem, Params: c.params}); err != nil {
			return err
		}
		if err := core.WireCheckpointOpts(f, o); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		bits, err := fieldBits(f, c.field)
		if err != nil {
			return err
		}
		mu.Lock()
		ranks[comm.Rank()] = bits
		mu.Unlock()
		return nil
	})
	return ranks, res.Err()
}

// shardBytesAt sums the shard sizes a step's manifest records.
func shardBytesAt(dir string, step int) (uint64, error) {
	m, err := ckpt.ReadManifest(filepath.Join(dir, ckpt.ManifestFileName(step)))
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, s := range m.Shards {
		total += s.Size
	}
	return total, nil
}

// incrementalCase runs one problem three ways — uninterrupted
// reference, full checkpoints every step, incremental checkpoints every
// step — then restores through the delta chain and fills the
// savings/verdict columns.
func incrementalCase(out io.Writer, scratch string, k ckptSpec) (CkptCase, error) {
	c := k.CkptCase
	ref, err := runCkptRanks(k,
		core.CheckpointOptions{Dir: filepath.Join(scratch, c.Name+"-ref")})
	if err != nil {
		return c, err
	}
	fullDir := filepath.Join(scratch, c.Name+"-full")
	if _, err := runCkptRanks(k,
		core.CheckpointOptions{Every: c.Every, Dir: fullDir}); err != nil {
		return c, err
	}
	incDir := filepath.Join(scratch, c.Name)
	t0 := time.Now()
	if _, err := runCkptRanks(k,
		core.CheckpointOptions{Every: c.Every, Dir: incDir, Incremental: true, FullEvery: 100}); err != nil {
		return c, err
	}
	writeWall := time.Since(t0)

	if c.BaselineBytes, err = shardBytesAt(fullDir, k.steadyStep); err != nil {
		return c, err
	}
	if c.ReducedBytes, err = shardBytesAt(incDir, k.steadyStep); err != nil {
		return c, err
	}
	c.SavingsX = float64(c.BaselineBytes) / float64(c.ReducedBytes)

	target := filepath.Join(incDir, ckpt.ManifestFileName(c.RestoreStep))
	chain, err := ckpt.ResolveChain(target)
	if err != nil {
		return c, err
	}
	c.ChainLen = len(chain)
	t0 = time.Now()
	got, err := runCkptRanks(k,
		core.CheckpointOptions{Dir: filepath.Join(scratch, c.Name+"-resume"), Restore: target})
	if err != nil {
		return c, err
	}
	fmt.Fprintf(out, "%-20s write run %8.1f ms, chain restore %8.1f ms, delta %d B vs full %d B (%.1fx)\n",
		c.Name, writeWall.Seconds()*1e3, time.Since(t0).Seconds()*1e3,
		c.ReducedBytes, c.BaselineBytes, c.SavingsX)
	c.BitForBit = slices.EqualFunc(ref, got, slices.Equal[[]float64])
	if err := inspectManifest(&c, incDir, c.RestoreStep); err != nil {
		return c, err
	}
	return c, nil
}

// BuildCkptReport runs the two delta-chain configurations. out receives
// wall-clock progress lines (not part of the artifact).
func BuildCkptReport(out io.Writer, scratch string) (*CkptReport, error) {
	cases := []ckptSpec{
		// The reaction term advances every cell every step, so every
		// patch's fingerprint changes and deltas buy almost nothing — this
		// row is the honest floor of the study: dirty-bit tracking only
		// skips patches that are genuinely clean.
		{
			CkptCase: CkptCase{Name: "flame-incremental", Driver: "rd", Ranks: 4, Steps: 6, Every: 1,
				RestoreStep: 4, Incremental: true},
			problem: "flame", field: "phi", steadyStep: 5,
			params: []core.Param{
				{Instance: "grace", Key: "nx", Value: "16"}, {Instance: "grace", Key: "ny", Value: "16"},
				{Instance: "grace", Key: "maxLevels", Value: "1"},
				{Instance: "driver", Key: "steps", Value: "6"},
				{Instance: "driver", Key: "dt", Value: "1e-7"},
				{Instance: "driver", Key: "regridEvery", Value: "0"},
			},
		},
		// A wide shock domain. The shock sits at 0.2·Lx and the oblique
		// interface at 0.4·Lx; everywhere else the state is uniform, so
		// Godunov flux differences are exactly zero and those cells are
		// bitwise-stationary. With 8 ranks the 256×8 grid decomposes into
		// eight 32-wide stripes and only the two stripes holding the
		// discontinuities ever change — the steady-state delta step
		// writes ~2/8 of the full payload.
		{
			CkptCase: CkptCase{Name: "shock-incremental", Driver: "shock", Ranks: 8, Steps: 6, Every: 1,
				RestoreStep: 4, Incremental: true},
			problem: "shock", field: "U", steadyStep: 5,
			params: []core.Param{
				{Instance: "grace", Key: "nx", Value: "256"}, {Instance: "grace", Key: "ny", Value: "8"},
				{Instance: "grace", Key: "lx", Value: "2.0"}, {Instance: "grace", Key: "ly", Value: "0.0625"},
				{Instance: "grace", Key: "maxLevels", Value: "1"},
				{Instance: "driver", Key: "tEnd", Value: "1.0"},
				{Instance: "driver", Key: "maxSteps", Value: "6"},
				{Instance: "driver", Key: "regridEvery", Value: "0"},
			},
		},
	}
	rep := &CkptReport{}
	for _, k := range cases {
		c, err := incrementalCase(out, scratch, k)
		if err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}
	return rep, nil
}

// PrintCkptReport renders the study as a table.
func PrintCkptReport(w io.Writer, rep *CkptReport) {
	fmt.Fprintf(w, "%-20s %-6s %5s %5s %5s %5s %9s %9s %6s %8s\n",
		"case", "driver", "ranks", "steps", "every", "chain", "fullB", "deltaB", "saveX", "bit4bit")
	for _, c := range rep.Cases {
		fmt.Fprintf(w, "%-20s %-6s %5d %5d %5d %5d %9d %9d %5.1fx %8v\n",
			c.Name, c.Driver, c.Ranks, c.Steps, c.Every, c.ChainLen,
			c.BaselineBytes, c.ReducedBytes, c.SavingsX, c.BitForBit)
	}
}
