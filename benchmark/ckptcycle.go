package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"ccahydro/internal/ckpt"
	"ccahydro/internal/core"
	"ccahydro/internal/obs"
)

const ckptEvery = 5

// ckptCycle is one write/read cycle over the shock problem:
//
//	save  the full run with a full checkpoint every ckptEvery steps
//	mid   restore from the manifest at the half-way save, run to the end
//	end   restore from the last save; zero live steps remain
//
// mid must reproduce save's series bit for bit (save itself is checked
// against the straight-through reference).
type ckptCycle struct {
	save, mid, end *meshResult
}

func dirUsage(dir string) (bytes int64, manifests int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		if strings.HasSuffix(path, ".manifest") {
			manifests++
		}
		return nil
	})
	return bytes, manifests, err
}

// runSave is the checkpointing run alone; the directory is left behind
// for the restores.
func runSave(spec meshSpec, dir string, incremental bool, group *obs.Group) (*meshResult, error) {
	spec.ckpt = &core.CheckpointOptions{Every: ckptEvery, Dir: dir, Incremental: incremental}
	return runMesh(spec, group)
}

// runRestore resumes from the newest checkpoint under dir at or before
// step atMost and runs to the end, saving nothing.
func runRestore(spec meshSpec, dir string, atMost int) (*meshResult, error) {
	manifest, _, ok := ckpt.LatestValidAtMost(dir, atMost)
	if !ok {
		return nil, fmt.Errorf("no valid checkpoint at or before step %d in %s", atMost, dir)
	}
	spec.ckpt = &core.CheckpointOptions{Dir: dir, Restore: manifest}
	return runMesh(spec, nil)
}

func runCkptCycle(spec meshSpec, scratch string) (*ckptCycle, error) {
	dir, err := os.MkdirTemp(scratch, "cycle-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cy := &ckptCycle{}
	if cy.save, err = runSave(spec, dir, false, nil); err != nil {
		return nil, err
	}
	if cy.mid, err = runRestore(spec, dir, cy.save.steps/2-1); err != nil {
		return nil, err
	}
	if cy.end, err = runRestore(spec, dir, cy.save.steps-1); err != nil {
		return nil, err
	}
	for name, r := range map[string]*meshResult{"mid-run restore": cy.mid, "end restore": cy.end} {
		if !reflect.DeepEqual(r.chk, cy.save.chk) {
			return nil, fmt.Errorf("%s does not reproduce the straight-through series bit for bit", name)
		}
	}
	return cy, nil
}

func (cy *ckptCycle) seconds() float64 {
	return cy.save.seconds + cy.mid.seconds + cy.end.seconds
}
