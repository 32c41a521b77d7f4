package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"
)

// host heads every result file, so that drift of the shared machine
// between two sets of runs is visible and not mistaken for a code
// change.
type host struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	CalibNs    float64 `json:"calib_ns"`
}

func hostHeader(seed int64) host {
	return host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		CalibNs:    calibrate(),
	}
}

// commit is the revision the binary was built from, as the Go toolchain
// stamped it; "unknown" outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

var calibSink float64

// calibrate times a fixed floating-point spin (a dependent
// multiply-add-sqrt chain, no memory traffic) and returns the best of
// several rounds in nanoseconds per iteration. It depends on the
// machine and its load, never on the code under test.
func calibrate() float64 {
	const iters = 2_000_000
	best := 0.0
	for round := 0; round < 5; round++ {
		x := 1.5
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x = math.Sqrt(x*1.000001 + 0.25)
		}
		ns := float64(time.Since(t0).Nanoseconds()) / iters
		calibSink += x
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}
