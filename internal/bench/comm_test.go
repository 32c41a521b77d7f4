package bench

import (
	"reflect"
	"runtime"
	"testing"

	"ccahydro/internal/exec"
	"ccahydro/internal/mpi"
)

// TestHaloAsyncBeatsBlocking runs the halo microbenchmark at a small
// size and checks the headline claims: overlapped virtual time never
// exceeds blocking, flight time is actually hidden, and message counts
// obey msgs <= nbrs and msgs <= regions (coalescing merged something).
func TestHaloAsyncBeatsBlocking(t *testing.T) {
	for _, p := range []int{2, 4} {
		pt := RunHalo(p, 64, 10, HaloCellCost, mpi.CPlantModel)
		if pt.AsyncTime > pt.BlockingTime {
			t.Errorf("P=%d: async %.6fs slower than blocking %.6fs", p, pt.AsyncTime, pt.BlockingTime)
		}
		if pt.AsyncTime >= pt.BlockingTime && pt.StallSeconds == 0 {
			// Equal times are only acceptable when nothing stalled at all.
			t.Errorf("P=%d: no improvement (%.6fs) yet stall recorded", p, pt.AsyncTime)
		}
		if pt.HiddenSeconds <= 0 {
			t.Errorf("P=%d: overlap hid no flight time", p)
		}
		if pt.MsgsPerExchange > pt.NeighborRankSum {
			t.Errorf("P=%d: %d msgs/exchange > %d neighbor-rank sum", p, pt.MsgsPerExchange, pt.NeighborRankSum)
		}
		if pt.MsgsPerExchange >= pt.RegionsPerExchange {
			t.Errorf("P=%d: coalescing merged nothing (%d msgs, %d regions)",
				p, pt.MsgsPerExchange, pt.RegionsPerExchange)
		}
		if pt.WordsPerExchange <= 0 {
			t.Errorf("P=%d: no exchange volume recorded", p)
		}
	}
}

// TestCommFlameSectionDeterministic: the flame series of the comm
// report are the same at pool widths 1 and 2 and across two runs, so
// BENCH_comm.json regenerates byte for byte on any host.
func TestCommFlameSectionDeterministic(t *testing.T) {
	defer exec.SetDefaultWidth(runtime.GOMAXPROCS(0))
	var reps []CommReport
	for _, width := range []int{1, 2, 2} {
		exec.SetDefaultWidth(width)
		rep, err := BuildCommReport(64, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if len(reps[0].FlameStrong) != 4 || len(reps[0].FlameWeak) != 4 {
		t.Fatalf("flame series sizes %d, %d, want 4 each", len(reps[0].FlameStrong), len(reps[0].FlameWeak))
	}
	for i, rep := range reps[1:] {
		if !reflect.DeepEqual(reps[0], rep) {
			t.Errorf("run %d differs from the width-1 run:\n%+v\n%+v", i+2, reps[0], rep)
		}
	}
}
