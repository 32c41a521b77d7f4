package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccahydro/internal/amr"
	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
)

// ---- Checkpoint/restart study ------------------------------------------
//
// Measures the checkpoint subsystem the way the paper's Table 4
// measures port overhead: what does durability cost, and does the
// restore contract hold? Every value in the JSON artifact is
// deterministic — byte counts come from the self-describing shard
// encoding (bit-exact fields, virtual-clock metadata) and the
// bit-for-bit flags from exact float comparison. Wall-clock save/
// restore timings go to stdout only.

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
	Faulted     bool   // a rank kill was injected
	Attempts    int    // supervisor attempts (fault case; else 1)
	Recovered   bool   // fault case: supervisor completed the run

	// Incremental/compression study columns (zero for plain cases).
	Incremental   bool
	Compressed    bool
	ChainLen      int     // delta-chain links behind the restored checkpoint
	BaselineBytes uint64  // full/raw shard bytes at the steady-state step
	ReducedBytes  uint64  // delta/compressed shard bytes at the same step
	SavingsX      float64 // BaselineBytes / ReducedBytes
}

// CkptReport is the BENCH_ckpt.json artifact.
type CkptReport struct {
	Cases []CkptCase
}

func flameCkptParams(steps int) []core.Param {
	return []core.Param{
		{Instance: "grace", Key: "nx", Value: "16"}, {Instance: "grace", Key: "ny", Value: "16"},
		{Instance: "grace", Key: "maxLevels", Value: "2"},
		{Instance: "driver", Key: "steps", Value: fmt.Sprintf("%d", steps)},
		{Instance: "driver", Key: "dt", Value: "1e-7"},
		{Instance: "driver", Key: "regridEvery", Value: "2"},
	}
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

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// runFlame runs the flame serially with checkpointing wired and returns
// the final field bits.
func runFlame(dir, restore string, every int, params []core.Param) ([]float64, error) {
	f := cca.NewFramework(core.Repo(), nil)
	if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params}); err != nil {
		return nil, err
	}
	if err := core.WireCheckpointOpts(f, core.CheckpointOptions{Dir: dir, Restore: restore, Every: every}); err != nil {
		return nil, err
	}
	if err := f.Go("driver", "go"); err != nil {
		return nil, err
	}
	return fieldBits(f, "phi")
}

// runFlameRanks runs the flame on a caller-built world, returning each
// rank's final field bits.
func runFlameRanks(w *mpi.World, dir, restore string, every int, params []core.Param) ([][]float64, error) {
	var mu sync.Mutex
	ranks := make([][]float64, w.Size())
	res := cca.RunSCMDOn(w, core.Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params}); err != nil {
			return err
		}
		if err := core.WireCheckpointOpts(f, core.CheckpointOptions{Dir: dir, Restore: restore, Every: every}); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		bits, err := fieldBits(f, "phi")
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

func sameRankBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !sameBits(a[r], b[r]) {
			return false
		}
	}
	return true
}

// runCkptRanks is the generic runner behind the incremental and
// compression cases: any assembly, any world, full checkpoint options.
func runCkptRanks(w *mpi.World, assemble func(*cca.Framework) error, fieldName string, o core.CheckpointOptions) ([][]float64, error) {
	var mu sync.Mutex
	ranks := make([][]float64, w.Size())
	res := cca.RunSCMDOn(w, core.Repo(), func(f *cca.Framework, comm *mpi.Comm) error {
		if err := assemble(f); err != nil {
			return err
		}
		if err := core.WireCheckpointOpts(f, o); err != nil {
			return err
		}
		if err := f.Go("driver", "go"); err != nil {
			return err
		}
		bits, err := fieldBits(f, fieldName)
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
func incrementalCase(out io.Writer, scratch string, c CkptCase,
	assemble func(*cca.Framework) error, fieldName string, steadyStep int) (CkptCase, error) {
	world := func() *mpi.World { return mpi.NewWorld(c.Ranks, mpi.CPlantModel) }
	ref, err := runCkptRanks(world(), assemble, fieldName,
		core.CheckpointOptions{Dir: filepath.Join(scratch, c.Name+"-ref")})
	if err != nil {
		return c, err
	}
	fullDir := filepath.Join(scratch, c.Name+"-full")
	if _, err := runCkptRanks(world(), assemble, fieldName,
		core.CheckpointOptions{Every: c.Every, Dir: fullDir}); err != nil {
		return c, err
	}
	incDir := filepath.Join(scratch, c.Name)
	t0 := time.Now()
	if _, err := runCkptRanks(world(), assemble, fieldName,
		core.CheckpointOptions{Every: c.Every, Dir: incDir, Incremental: true, FullEvery: 100}); err != nil {
		return c, err
	}
	writeWall := time.Since(t0)

	if c.BaselineBytes, err = shardBytesAt(fullDir, steadyStep); err != nil {
		return c, err
	}
	if c.ReducedBytes, err = shardBytesAt(incDir, steadyStep); err != nil {
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
	got, err := runCkptRanks(world(), assemble, fieldName,
		core.CheckpointOptions{Dir: filepath.Join(scratch, c.Name+"-resume"), Restore: target})
	if err != nil {
		return c, err
	}
	fmt.Fprintf(out, "%-20s write run %8.1f ms, chain restore %8.1f ms, delta %d B vs full %d B (%.1fx)\n",
		c.Name, writeWall.Seconds()*1e3, time.Since(t0).Seconds()*1e3,
		c.ReducedBytes, c.BaselineBytes, c.SavingsX)
	c.BitForBit = sameRankBits(ref, got)
	if err := inspectManifest(&c, incDir, c.RestoreStep); err != nil {
		return c, err
	}
	return c, nil
}

// BuildCkptReport runs the four checkpoint configurations. out receives
// wall-clock progress lines (not part of the artifact).
func BuildCkptReport(out io.Writer, scratch string) (*CkptReport, error) {
	rep := &CkptReport{}
	const steps = 4
	params := flameCkptParams(steps)

	// Case 1: serial flame, checkpoint every step, restore mid-run.
	{
		c := CkptCase{Name: "flame-serial", Driver: "rd", Ranks: 1, Steps: steps, Every: 1, RestoreStep: 1, Attempts: 1}
		dir := filepath.Join(scratch, c.Name)
		ref, err := runFlame(filepath.Join(scratch, c.Name+"-ref"), "", 0, params)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := runFlame(dir, "", 1, params); err != nil {
			return nil, err
		}
		saveWall := time.Since(t0)
		t0 = time.Now()
		got, err := runFlame(filepath.Join(scratch, c.Name+"-resume"),
			filepath.Join(dir, ckpt.ManifestFileName(c.RestoreStep)), 0, params)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%-20s write run %8.1f ms, resume run %8.1f ms\n",
			c.Name, saveWall.Seconds()*1e3, time.Since(t0).Seconds()*1e3)
		c.BitForBit = sameBits(ref, got)
		if err := inspectManifest(&c, dir, c.RestoreStep); err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}

	// Case 2: 4-rank flame, per-rank shards + rank-0 manifest.
	{
		c := CkptCase{Name: "flame-4rank", Driver: "rd", Ranks: 4, Steps: steps, Every: 2, RestoreStep: 1, Attempts: 1}
		dir := filepath.Join(scratch, c.Name)
		t0 := time.Now()
		ref, err := runFlameRanks(mpi.NewWorld(4, mpi.CPlantModel), dir, "", 2, params)
		if err != nil {
			return nil, err
		}
		saveWall := time.Since(t0)
		t0 = time.Now()
		got, err := runFlameRanks(mpi.NewWorld(4, mpi.CPlantModel), filepath.Join(scratch, c.Name+"-resume"),
			filepath.Join(dir, ckpt.ManifestFileName(c.RestoreStep)), 0, params)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%-20s write run %8.1f ms, resume run %8.1f ms\n",
			c.Name, saveWall.Seconds()*1e3, time.Since(t0).Seconds()*1e3)
		c.BitForBit = sameRankBits(ref, got)
		if err := inspectManifest(&c, dir, c.RestoreStep); err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}

	// Case 3: serial shock, restore reinstates the circulation series.
	{
		c := CkptCase{Name: "shock-serial", Driver: "shock", Ranks: 1, Steps: 6, Every: 2, RestoreStep: 3, Attempts: 1}
		sp := []core.Param{
			{Instance: "grace", Key: "nx", Value: "32"}, {Instance: "grace", Key: "ny", Value: "16"},
			{Instance: "grace", Key: "lx", Value: "2.0"}, {Instance: "grace", Key: "ly", Value: "1.0"},
			{Instance: "grace", Key: "maxLevels", Value: "2"},
			{Instance: "driver", Key: "tEnd", Value: "1.0"},
			{Instance: "driver", Key: "maxSteps", Value: "6"},
			{Instance: "driver", Key: "regridEvery", Value: "2"},
		}
		runShock := func(dir, restore string, every int) ([]float64, *components.ShockDriver, error) {
			f := cca.NewFramework(core.Repo(), nil)
			if err := core.AssembleRequest(f, core.RunRequest{Problem: "shock", Params: sp}); err != nil {
				return nil, nil, err
			}
			if err := core.WireCheckpointOpts(f, core.CheckpointOptions{Dir: dir, Restore: restore, Every: every}); err != nil {
				return nil, nil, err
			}
			if err := f.Go("driver", "go"); err != nil {
				return nil, nil, err
			}
			bits, err := fieldBits(f, "U")
			if err != nil {
				return nil, nil, err
			}
			comp, _ := f.Lookup("driver")
			return bits, comp.(*components.ShockDriver), nil
		}
		dir := filepath.Join(scratch, c.Name)
		t0 := time.Now()
		ref, drRef, err := runShock(dir, "", 2)
		if err != nil {
			return nil, err
		}
		saveWall := time.Since(t0)
		t0 = time.Now()
		got, drGot, err := runShock(filepath.Join(scratch, c.Name+"-resume"),
			filepath.Join(dir, ckpt.ManifestFileName(c.RestoreStep)), 0)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%-20s write run %8.1f ms, resume run %8.1f ms\n",
			c.Name, saveWall.Seconds()*1e3, time.Since(t0).Seconds()*1e3)
		c.BitForBit = sameBits(ref, got) &&
			len(drGot.Circulations) == len(drRef.Circulations) &&
			drGot.FinalTime == drRef.FinalTime
		for i := range drRef.Circulations {
			if c.BitForBit && drGot.Circulations[i] != drRef.Circulations[i] {
				c.BitForBit = false
			}
		}
		if err := inspectManifest(&c, dir, c.RestoreStep); err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}

	// Case 4: injected rank kill + supervised recovery.
	{
		c := CkptCase{Name: "flame-fault-kill", Driver: "rd", Ranks: 4, Steps: steps, Every: 1, RestoreStep: 1, Faulted: true}
		ref, err := runFlameRanks(mpi.NewWorld(4, mpi.CPlantModel), filepath.Join(scratch, c.Name+"-ref"), "", 1, params)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(scratch, c.Name)
		var final [][]float64
		t0 := time.Now()
		err = ckpt.Supervise(dir, 2, func(restore string) error {
			c.Attempts++
			w := mpi.NewWorld(4, mpi.CPlantModel)
			if c.Attempts == 1 {
				w.InjectFault(mpi.Fault{Rank: 2, Kind: mpi.FaultKill, AtStep: 2, AtSend: -1})
			}
			ranks, err := runFlameRanks(w, dir, restore, 1, params)
			if err != nil {
				return err
			}
			final = ranks
			return nil
		})
		fmt.Fprintf(out, "%-20s kill rank 2 @ step 2, supervised recovery %8.1f ms (%d attempts)\n",
			c.Name, time.Since(t0).Seconds()*1e3, c.Attempts)
		c.Recovered = err == nil
		c.BitForBit = err == nil && sameRankBits(ref, final)
		if err := inspectManifest(&c, dir, steps-1); err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}

	// Case 5: incremental flame. The reaction term advances every cell
	// every step, so every patch's fingerprint changes and deltas buy
	// almost nothing — this row is the honest floor of the study:
	// dirty-bit tracking only skips patches that are genuinely clean.
	{
		c := CkptCase{Name: "flame-incremental", Driver: "rd", Ranks: 4, Steps: 6, Every: 1,
			RestoreStep: 4, Attempts: 1, Incremental: true}
		p := []core.Param{
			{Instance: "grace", Key: "nx", Value: "16"}, {Instance: "grace", Key: "ny", Value: "16"},
			{Instance: "grace", Key: "maxLevels", Value: "1"},
			{Instance: "driver", Key: "steps", Value: "6"},
			{Instance: "driver", Key: "dt", Value: "1e-7"},
			{Instance: "driver", Key: "regridEvery", Value: "0"},
		}
		assemble := func(f *cca.Framework) error {
			return core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: p})
		}
		c, err := incrementalCase(out, scratch, c, assemble, "phi", 5)
		if err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}

	// Case 6: incremental shock on a wide domain. The shock sits at
	// 0.2·Lx and the oblique interface at 0.4·Lx; everywhere else the
	// state is uniform, so Godunov flux differences are exactly zero and
	// those cells are bitwise-stationary. With 8 ranks the 256×8 grid
	// decomposes into eight 32-wide stripes and only the two stripes
	// holding the discontinuities ever change — the steady-state delta
	// step writes ~2/8 of the full payload.
	{
		c := CkptCase{Name: "shock-incremental", Driver: "shock", Ranks: 8, Steps: 6, Every: 1,
			RestoreStep: 4, Attempts: 1, Incremental: true}
		sp := []core.Param{
			{Instance: "grace", Key: "nx", Value: "256"}, {Instance: "grace", Key: "ny", Value: "8"},
			{Instance: "grace", Key: "lx", Value: "2.0"}, {Instance: "grace", Key: "ly", Value: "0.0625"},
			{Instance: "grace", Key: "maxLevels", Value: "1"},
			{Instance: "driver", Key: "tEnd", Value: "1.0"},
			{Instance: "driver", Key: "maxSteps", Value: "6"},
			{Instance: "driver", Key: "regridEvery", Value: "0"},
		}
		assemble := func(f *cca.Framework) error {
			return core.AssembleRequest(f, core.RunRequest{Problem: "shock", Params: sp})
		}
		c, err := incrementalCase(out, scratch, c, assemble, "U", 5)
		if err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}

	// Case 7: gzip-framed flame shards (format v2 compressed sections)
	// against raw v2, restore bit-for-bit from the compressed chain.
	{
		c := CkptCase{Name: "flame-compress", Driver: "rd", Ranks: 1, Steps: steps, Every: 1,
			RestoreStep: 3, Attempts: 1, Compressed: true}
		assemble := func(f *cca.Framework) error {
			return core.AssembleRequest(f, core.RunRequest{Problem: "flame", Params: params})
		}
		world := func() *mpi.World { return mpi.NewWorld(1, mpi.CPlantModel) }
		ref, err := runCkptRanks(world(), assemble, "phi",
			core.CheckpointOptions{Dir: filepath.Join(scratch, c.Name+"-ref")})
		if err != nil {
			return nil, err
		}
		rawDir := filepath.Join(scratch, c.Name+"-raw")
		if _, err := runCkptRanks(world(), assemble, "phi",
			core.CheckpointOptions{Every: 1, Dir: rawDir}); err != nil {
			return nil, err
		}
		dir := filepath.Join(scratch, c.Name)
		t0 := time.Now()
		if _, err := runCkptRanks(world(), assemble, "phi",
			core.CheckpointOptions{Every: 1, Dir: dir, Compress: true}); err != nil {
			return nil, err
		}
		saveWall := time.Since(t0)
		if c.BaselineBytes, err = shardBytesAt(rawDir, c.RestoreStep); err != nil {
			return nil, err
		}
		if c.ReducedBytes, err = shardBytesAt(dir, c.RestoreStep); err != nil {
			return nil, err
		}
		c.SavingsX = float64(c.BaselineBytes) / float64(c.ReducedBytes)
		t0 = time.Now()
		got, err := runCkptRanks(world(), assemble, "phi",
			core.CheckpointOptions{Dir: filepath.Join(scratch, c.Name+"-resume"),
				Restore: filepath.Join(dir, ckpt.ManifestFileName(c.RestoreStep))})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%-20s write run %8.1f ms, resume run %8.1f ms, gzip %d B vs raw %d B (%.1fx)\n",
			c.Name, saveWall.Seconds()*1e3, time.Since(t0).Seconds()*1e3,
			c.ReducedBytes, c.BaselineBytes, c.SavingsX)
		c.BitForBit = sameRankBits(ref, got)
		if err := inspectManifest(&c, dir, c.RestoreStep); err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, c)
	}
	return rep, nil
}

// PrintCkptReport renders the study as a table.
func PrintCkptReport(w io.Writer, rep *CkptReport) {
	fmt.Fprintf(w, "%-20s %-6s %5s %5s %5s %-5s %5s %9s %9s %6s %10s %9s\n",
		"case", "driver", "ranks", "steps", "every", "mode", "chain", "baseB", "shardB", "saveX", "bit4bit", "recovered")
	for _, c := range rep.Cases {
		rec := "-"
		if c.Faulted {
			rec = fmt.Sprintf("%v/%d", c.Recovered, c.Attempts)
		}
		mode := "full"
		if c.Incremental {
			mode = "incr"
		} else if c.Compressed {
			mode = "gzip"
		}
		save := "-"
		if c.SavingsX > 0 {
			save = fmt.Sprintf("%.1fx", c.SavingsX)
		}
		base := "-"
		if c.BaselineBytes > 0 {
			base = fmt.Sprintf("%d", c.BaselineBytes)
		}
		fmt.Fprintf(w, "%-20s %-6s %5d %5d %5d %-5s %5d %9s %9d %6s %10v %9s\n",
			c.Name, c.Driver, c.Ranks, c.Steps, c.Every, mode, c.ChainLen,
			base, c.ShardBytes, save, c.BitForBit, rec)
	}
}
