// Checkpoint demonstrates save/restart of a running SAMR simulation:
// the shock-interface problem is advanced halfway, each rank's shard
// (hierarchy geometry + owned patch data) is serialized, a fresh
// process-state restores it, and the restarted field is verified to be
// bit-identical before continuing the run.
//
//	go run ./examples/checkpoint [-dir /tmp/ckpt]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/euler"
	"ccahydro/internal/field"
)

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

	params := []core.Param{
		{Instance: "grace", Key: "nx", Value: "64"},
		{Instance: "grace", Key: "ny", Value: "32"},
		{Instance: "grace", Key: "lx", Value: "2.0"},
		{Instance: "grace", Key: "ly", Value: "1.0"},
		{Instance: "grace", Key: "maxLevels", Value: "2"},
		{Instance: "driver", Key: "tEnd", Value: "0.3"},
		{Instance: "driver", Key: "maxSteps", Value: "200"},
		{Instance: "driver", Key: "regridEvery", Value: "5"},
	}

	// Phase 1: run halfway.
	dr, f, err := core.RunShockInterface(nil, "GodunovFlux", params...)
	if err != nil {
		log.Fatal(err)
	}
	comp, _ := f.Lookup("grace")
	gc := comp.(*components.GrACEComponent)
	d := gc.Field("U")
	fmt.Printf("phase 1: %d steps to t=%.3f, hierarchy:\n%s", dr.Steps, dr.FinalTime, gc.Hierarchy())

	// Checkpoint (serial run: one shard).
	path := filepath.Join(*dir, "shock.ckpt")
	fd, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.WriteCheckpoint(fd); err != nil {
		log.Fatal(err)
	}
	fd.Close()
	info, _ := os.Stat(path)
	fmt.Printf("\ncheckpoint written: %s (%d bytes)\n", path, info.Size())

	// Phase 2: restore into a fresh DataObject and verify bit equality.
	rd, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := field.ReadCheckpoint(rd, nil)
	rd.Close()
	if err != nil {
		log.Fatal(err)
	}
	var buf1, buf2 bytes.Buffer
	if err := d.WriteCSV(&buf1, euler.IRho, "orig"); err != nil {
		log.Fatal(err)
	}
	if err := restored.WriteCSV(&buf2, euler.IRho, "orig"); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		log.Fatal("restored field differs from original")
	}
	fmt.Printf("restore verified: density field bit-identical (%d levels, %d cells)\n",
		restored.Hierarchy().NumLevels(), restored.Hierarchy().TotalCells())

	// Phase 3: continue the run from the restored state — assemble a
	// fresh framework, Adopt the restored field into its GrACE mesh,
	// and fire the driver; it detects the existing field and skips the
	// initial condition.
	f2 := cca.NewFramework(core.Repo(), nil)
	params2 := append(params, core.Param{Instance: "driver", Key: "tEnd", Value: "0.6"})
	if err := core.AssembleRequest(f2, core.RunRequest{Problem: "shock", Params: params2}); err != nil {
		log.Fatal(err)
	}
	g2Comp, _ := f2.Lookup("grace")
	g2Comp.(*components.GrACEComponent).Adopt("U", restored)
	if err := f2.Go("driver", "go"); err != nil {
		log.Fatal(err)
	}
	dr2Comp, _ := f2.Lookup("driver")
	dr2 := dr2Comp.(*components.ShockDriver)
	fmt.Printf("\nphase 3 (restarted run): %d more steps to t=%.3f, circulation %.4f\n",
		dr2.Steps, 0.3+dr2.FinalTime, dr2.Circulations[len(dr2.Circulations)-1])
}
