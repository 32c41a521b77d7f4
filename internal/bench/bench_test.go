package bench

import (
	"math"
	"slices"
	"strings"
	"testing"

	"ccahydro/internal/mpi"
)

// Table 5 / Fig 8 shape up to P = 8: weak scaling stays flat, and run
// time orders by per-processor problem size. (At the paper's P = 48
// the chemistry imbalance lifts the lines; EXPERIMENTS.md.)
func TestWeakScalingShape(t *testing.T) {
	ps := []int{1, 2, 4, 8}
	rows, err := RunTable5([]int{12, 24}, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, large := rows[0], rows[1]
	// Larger per-proc mesh takes longer (paper: times scale as the
	// single-processor problem size).
	if large.Mean < 3*small.Mean {
		t.Errorf("175-vs-50 analogue: mean %v vs %v (want ~4x)", large.Mean, small.Mean)
	}
	// Flat in P: sigma small relative to mean (paper Table 5 shape).
	for _, r := range rows {
		if r.Sigma > 0.25*r.Mean {
			t.Errorf("per-proc %d: sigma %v too large vs mean %v", r.PerProcN, r.Sigma, r.Mean)
		}
		// No blow-up: max/min within 1.6x.
		mn, mx := math.Inf(1), 0.0
		for _, x := range r.Times {
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		if mx/mn > 1.6 {
			t.Errorf("per-proc %d: weak scaling not flat (%v..%v)", r.PerProcN, mn, mx)
		}
	}
}

// Fig 9 shape: the large problem scales better than the small one, and
// efficiency degrades as the per-rank share shrinks.
func TestStrongScalingShape(t *testing.T) {
	ps := []int{1, 4, 16}
	small, err := RunFig9(32, ps, mpi.CPlantModel)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunFig9(64, ps, mpi.CPlantModel)
	if err != nil {
		t.Fatal(err)
	}
	effAt := func(pts []Fig9Point, p int) float64 {
		for _, pt := range pts {
			if pt.P == p {
				return pt.Efficiency
			}
		}
		t.Fatalf("missing P=%d", p)
		return 0
	}
	if e := effAt(small, 1); math.Abs(e-1) > 1e-9 {
		t.Errorf("P=1 efficiency = %v", e)
	}
	eSmall, eLarge := effAt(small, 16), effAt(large, 16)
	t.Logf("P=16 efficiency: 32x32 %.3f, 64x64 %.3f", eSmall, eLarge)
	if eSmall >= eLarge {
		t.Errorf("small problem (eff %v) should scale worse than large (eff %v)", eSmall, eLarge)
	}
	if eSmall > 0.98 {
		t.Errorf("small-problem efficiency %v shows no degradation; crossover missing", eSmall)
	}
	if eSmall < 0.3 {
		t.Errorf("small-problem efficiency %v collapsed; model too pessimistic", eSmall)
	}
}

// The work-count clock repeats bit for bit: the same run twice gives
// the same per-rank virtual times.
func TestScalingDeterminism(t *testing.T) {
	a, err := RunFlame(4, 24, 24, mpi.CPlantModel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFlame(4, 24, 24, mpi.CPlantModel)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Errorf("virtual times not deterministic: %v vs %v", a, b)
	}
	for r, v := range a {
		if v <= 0 {
			t.Errorf("rank %d: virtual time %v, want > 0", r, v)
		}
	}
}

func TestFactorPair(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 12: {4, 3}, 48: {8, 6}}
	for p, want := range cases {
		a, b := factorPair(p)
		if a*b != p || (a != want[0] && a != want[1]) {
			t.Errorf("factorPair(%d) = %d,%d", p, a, b)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	mean, median, sigma := stats([]float64{1, 2, 3, 4})
	if mean != 2.5 || median != 2.5 {
		t.Errorf("mean %v median %v", mean, median)
	}
	if math.Abs(sigma-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("sigma = %v", sigma)
	}
	_, medOdd, _ := stats([]float64{5, 1, 3})
	if medOdd != 3 {
		t.Errorf("odd median = %v", medOdd)
	}
}

func TestSampleAt(t *testing.T) {
	ts := []float64{0, 1, 2}
	ys := []float64{0, 10, 20}
	if v := sampleAt(ts, ys, 0.5); v != 5 {
		t.Errorf("interp = %v", v)
	}
	if v := sampleAt(ts, ys, -1); v != 0 {
		t.Errorf("clamp-lo = %v", v)
	}
	if v := sampleAt(ts, ys, 9); v != 20 {
		t.Errorf("clamp-hi = %v", v)
	}
}

func TestFig3FramesEvolve(t *testing.T) {
	frames, _, err := RunFig3(Fig3Config{Nx: 20, MaxLevels: 1, StepsPerFrame: 2, Frames: 2, Dt: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	for _, fr := range frames {
		if fr.TMax < 1500 || fr.TMin < 250 {
			t.Errorf("frame %+v out of range", fr)
		}
	}
	// Chemistry heats the kernels between frames.
	if frames[1].TMax < frames[0].TMax-1 {
		t.Errorf("Tmax dropped: %v -> %v", frames[0].TMax, frames[1].TMax)
	}
}

func TestFig4CensusShape(t *testing.T) {
	rows, err := RunFig4(Fig3Config{Nx: 32, MaxLevels: 2, StepsPerFrame: 1, Frames: 1, Dt: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("no refinement: %+v", rows)
	}
	if rows[0].Coverage != 1 {
		t.Errorf("level-0 coverage = %v", rows[0].Coverage)
	}
	if rows[1].Coverage >= 1 {
		t.Errorf("level-1 coverage = %v, fine level must be selective", rows[1].Coverage)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var b strings.Builder
	PrintTable5(&b, []Table5Stats{{PerProcN: 50, Times: []float64{1}, Mean: 1, Median: 1}}, []int{1})
	PrintFig8(&b, []Table5Stats{{PerProcN: 50, Times: []float64{1}}}, []int{1})
	PrintFig9(&b, map[int][]Fig9Point{200: {{P: 1, Time: 1, Ideal: 1, Efficiency: 1}}})
	PrintFig3(&b, []Fig3Snapshot{{Time: 1e-7, TMax: 1800, TMin: 300}})
	PrintFig4(&b, []Fig4Row{{Level: 0, Patches: 1, Cells: 100, Coverage: 1}})
	PrintFig6(&b, Fig6Result{Time: 1})
	PrintFig7(&b, []Fig7Series{{Levels: 1, Times: []float64{0, 1}, Circulations: []float64{0, -0.5}, Knee: -0.5}}, 4)
	out := b.String()
	for _, want := range []string{"Table 5", "Fig 8", "Fig 9", "Fig 3", "Fig 4", "Fig 6", "Fig 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
}
