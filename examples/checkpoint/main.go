// Checkpoint demonstrates save/restart of a running SAMR simulation
// through the checkpoint component: the shock-interface problem runs
// its first half with a CheckpointComponent wired in (a versioned,
// CRC-checked shard per rank plus a manifest), a fresh framework
// restores the newest durable checkpoint and finishes the run, and the
// restarted result is verified bit-identical to a straight-through run.
//
//	go run ./examples/checkpoint [-dir /tmp/ckpt]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/euler"
)

const half = 100 // steps before the checkpoint; the full run is 2*half

// run assembles the shock for the given step count, wires checkpointing
// when o names a directory, and returns the driver and the density CSV.
func run(steps int, o core.CheckpointOptions) (*components.ShockDriver, []byte) {
	f := cca.NewFramework(core.Repo(), nil)
	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: "64"},
		{Instance: "grace", Key: "ny", Value: "32"},
		{Instance: "grace", Key: "lx", Value: "2.0"},
		{Instance: "grace", Key: "ly", Value: "1.0"},
		{Instance: "grace", Key: "maxLevels", Value: "2"},
		{Instance: "driver", Key: "maxSteps", Value: strconv.Itoa(steps)},
		{Instance: "driver", Key: "regridEvery", Value: "5"},
	}
	if err := core.AssembleRequest(f, core.RunRequest{Problem: "shock", Params: params}); err != nil {
		log.Fatal(err)
	}
	if o.Dir != "" {
		if err := core.WireCheckpointOpts(f, o); err != nil {
			log.Fatal(err)
		}
	}
	if err := f.Go("driver", "go"); err != nil {
		log.Fatal(err)
	}
	dr, _ := f.Lookup("driver")
	gc, _ := f.Lookup("grace")
	var csv bytes.Buffer
	if err := gc.(*components.GrACEComponent).Field("U").WriteCSV(&csv, euler.IRho, "rho"); err != nil {
		log.Fatal(err)
	}
	return dr.(*components.ShockDriver), csv.Bytes()
}

func main() {
	dir := flag.String("dir", "", "checkpoint directory (default: temp dir)")
	flag.Parse()
	if *dir == "" {
		d, err := os.MkdirTemp("", "ccahydro-ckpt-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(d)
		*dir = d
	}

	// Phase 1: run the first half, saving after its last step.
	dr1, _ := run(half, core.CheckpointOptions{Every: half, Dir: *dir})
	manifest, step, ok := ckpt.LatestValid(*dir)
	if !ok {
		log.Fatal("no durable checkpoint written")
	}
	fmt.Printf("phase 1: %d steps to t=%.4f, checkpoint %s (step %d)\n", dr1.Steps, dr1.FinalTime, manifest, step)

	// Phase 2: a fresh framework restores the checkpoint and finishes.
	dr2, restarted := run(2*half, core.CheckpointOptions{Dir: *dir, Restore: manifest})
	fmt.Printf("phase 2 (restarted): %d more steps to t=%.4f\n", dr2.Steps-dr1.Steps, dr2.FinalTime)

	// Reference: the same run straight through, no checkpoint wired.
	ref, straight := run(2*half, core.CheckpointOptions{})
	if !bytes.Equal(restarted, straight) || dr2.FinalTime != ref.FinalTime {
		log.Fatal("restarted run differs from the straight-through run")
	}
	last := len(ref.Circulations) - 1
	if len(dr2.Circulations) != len(ref.Circulations) || dr2.Circulations[last] != ref.Circulations[last] {
		log.Fatal("restarted circulation history differs from the straight-through run")
	}
	fmt.Printf("restart verified: density field and circulation %.6f bit-identical to the straight-through run\n",
		ref.Circulations[last])
}
