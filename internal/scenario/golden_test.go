package scenario_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ccahydro/internal/cca"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
	"ccahydro/internal/scenario"
)

func loadScenario(t *testing.T, name string) *scenario.Compiled {
	t.Helper()
	path := filepath.FromSlash("../../scenarios/" + name + ".scn")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(path, src)
	if err != nil {
		t.Fatalf("%s does not validate:\n%v", path, err)
	}
	return c
}

// buildAndGo assembles a compiled scenario onto a fresh framework and
// fires its go port — the run server's execution path in miniature.
func buildAndGo(t *testing.T, c *scenario.Compiled, comm *mpi.Comm, overrides ...scenario.Param) *cca.Framework {
	t.Helper()
	f := cca.NewFramework(core.Repo(), comm)
	if err := c.Build(f, overrides...); err != nil {
		t.Fatal(err)
	}
	if err := f.Go(c.RunInstance(), "go"); err != nil {
		t.Fatal(err)
	}
	return f
}

// snapshotField flattens every interior cell of every level of a named
// field into one deterministic vector (same scheme as the core package's
// checkpoint-comparison tests).
func snapshotField(t *testing.T, f *cca.Framework, fieldName string) []float64 {
	t.Helper()
	comp, err := f.Lookup("grace")
	if err != nil {
		t.Fatal(err)
	}
	gc := comp.(*components.GrACEComponent)
	d := gc.Field(fieldName)
	if d == nil {
		t.Fatalf("field %q not declared", fieldName)
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
	return out
}

func statsSeries(t *testing.T, f *cca.Framework, key string) []float64 {
	t.Helper()
	comp, err := f.Lookup("stats")
	if err != nil {
		t.Fatal(err)
	}
	return comp.(*components.StatisticsComponent).Get(key)
}

// fingerprint hashes float64 arrays bit for bit: each array's length,
// then the IEEE-754 bits of every element, through FNV-1a 64.
func fingerprint(arrays ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, a := range arrays {
		word(uint64(len(a)))
		for _, x := range a {
			word(math.Float64bits(x))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkGolden demands every fingerprint match its frozen value: the
// built-ins must compute, bit for bit, what the Go-coded assemblies
// they replaced computed when the values were recorded.
func checkGolden(t *testing.T, got, want map[string]string) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: fingerprint %s, frozen %s", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d fingerprints, %d frozen", len(got), len(want))
	}
	if t.Failed() {
		t.Logf("got %#v", got)
	}
}

// TestGoldenIgnitionScenario: the ignition built-in reproduces the
// frozen Table 1 trajectory.
func TestGoldenIgnitionScenario(t *testing.T) {
	dr, err := core.RunIgnition0D(
		core.Param{Instance: "driver", Key: "tEnd", Value: "2e-5"},
		core.Param{Instance: "driver", Key: "nOut", Value: "4"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, map[string]string{
		"Times":         fingerprint(dr.Times),
		"Temps":         fingerprint(dr.Temps),
		"Pressures":     fingerprint(dr.Pressures),
		"FinalY":        fingerprint(dr.FinalY),
		"IgnitionDelay": fingerprint([]float64{dr.IgnitionDelay}),
	}, goldenIgnition)
}

var flameGoldenParams = []core.Param{
	{Instance: "grace", Key: "nx", Value: "24"}, {Instance: "grace", Key: "ny", Value: "24"},
	{Instance: "grace", Key: "maxLevels", Value: "2"},
	{Instance: "driver", Key: "steps", Value: "2"}, {Instance: "driver", Key: "dt", Value: "1e-7"},
	{Instance: "driver", Key: "regridEvery", Value: "1"},
}

// TestGoldenFlameScenario: the flame built-in reproduces the frozen
// Table 2 run — final field, extrema, and the deterministic statistics
// series.
func TestGoldenFlameScenario(t *testing.T) {
	dr, f, err := core.RunReactionDiffusion(nil, flameGoldenParams...)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"phi":     fingerprint(snapshotField(t, f, "phi")),
		"extrema": fingerprint([]float64{dr.TMax, dr.TMin}),
	}
	for _, key := range []string{"cells", "Tmax", "Tmin"} {
		got[key] = fingerprint(statsSeries(t, f, key))
	}
	checkGolden(t, got, goldenFlame)
}

var shockGoldenParams = []core.Param{
	{Instance: "grace", Key: "nx", Value: "32"}, {Instance: "grace", Key: "ny", Value: "16"},
	{Instance: "grace", Key: "maxLevels", Value: "2"},
	{Instance: "driver", Key: "tEnd", Value: "0.05"}, {Instance: "driver", Key: "maxSteps", Value: "8"},
	{Instance: "driver", Key: "regridEvery", Value: "4"},
}

// TestGoldenShockScenario: the shock built-in reproduces the frozen
// Table 3 run, t/dt series included.
func TestGoldenShockScenario(t *testing.T) {
	dr, f, err := core.RunShockInterface(nil, "", shockGoldenParams...)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"U":            fingerprint(snapshotField(t, f, "U")),
		"Circulations": fingerprint(dr.Circulations),
	}
	for _, key := range []string{"t", "dt", "circulation"} {
		got[key] = fingerprint(statsSeries(t, f, key))
	}
	checkGolden(t, got, goldenShock)
}

// goldenSCMD runs a built-in on 4 SCMD ranks and fingerprints every
// rank's local field partition and statistics series.
func goldenSCMD(t *testing.T, req core.RunRequest, field string, keys ...string) map[string]string {
	t.Helper()
	got := map[string]string{}
	var mu sync.Mutex
	res := cca.RunSCMDOn(mpi.NewWorld(4, mpi.CPlantModel), core.Repo(),
		func(f *cca.Framework, comm *mpi.Comm) error {
			if err := core.AssembleRequest(f, req); err != nil {
				return err
			}
			if err := f.Go("driver", "go"); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			rank := fmt.Sprintf("rank%d/", comm.Rank())
			got[rank+field] = fingerprint(snapshotField(t, f, field))
			for _, k := range keys {
				got[rank+k] = fingerprint(statsSeries(t, f, k))
			}
			return nil
		})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGoldenFlameScenario4Rank repeats the flame check on 4 SCMD ranks:
// every rank's field partition and statistics series.
func TestGoldenFlameScenario4Rank(t *testing.T) {
	req := core.RunRequest{Problem: "flame", Params: flameGoldenParams}
	checkGolden(t, goldenSCMD(t, req, "phi", "cells", "Tmax", "Tmin"), goldenFlame4Rank)
}

// TestGoldenShockScenario4Rank repeats the shock check on 4 ranks.
func TestGoldenShockScenario4Rank(t *testing.T) {
	req := core.RunRequest{Problem: "shock", Params: shockGoldenParams}
	checkGolden(t, goldenSCMD(t, req, "U", "t", "dt"), goldenShock4Rank)
}

// Frozen fingerprints of the built-ins under the golden parameters,
// recorded from the Go-coded assemblies the embedded scenarios replaced.
// The ignition FinalY/Pressures/Temps and the flame phi fields were
// re-pinned when the dense LU solve began applying every row swap
// before forward substitution, as its whole-row-swap factorization
// requires.
var (
	goldenIgnition = map[string]string{
		"FinalY": "e9c309c575ee68c8", "IgnitionDelay": "0e82d61c80d991f4", "Pressures": "3c0c1764fc1b97ac",
		"Temps": "7b614eaf96893b6d", "Times": "4f0813f4c6d4ac08",
	}
	goldenFlame = map[string]string{
		"Tmax": "1575e320377ecb4a", "Tmin": "6350f5f287c11de6", "cells": "cdd22dbd98c0a147",
		"extrema": "f41f3aa341667ceb", "phi": "bcde034c17c42db0",
	}
	goldenShock = map[string]string{
		"Circulations": "579760a9337517cd", "U": "d244ba013700c276", "circulation": "579760a9337517cd",
		"dt": "98fd171e79f04728", "t": "5a71ba1028428be8",
	}
	goldenFlame4Rank = map[string]string{
		"rank0/Tmax": "1575e320377ecb4a", "rank0/Tmin": "6350f5f287c11de6", "rank0/cells": "cdd22dbd98c0a147", "rank0/phi": "2bd3d4981568a85c",
		"rank1/Tmax": "fe55eb257297956f", "rank1/Tmin": "6abb17571ecac57b", "rank1/cells": "cdd22dbd98c0a147", "rank1/phi": "9801c26926c974ef",
		"rank2/Tmax": "4c8ceea4f3c7311d", "rank2/Tmin": "d9f7ca34a32a856d", "rank2/cells": "cdd22dbd98c0a147", "rank2/phi": "d35ae6fab1fd7643",
		"rank3/Tmax": "4bba59ebc624f995", "rank3/Tmin": "6350f5f287c11de6", "rank3/cells": "cdd22dbd98c0a147", "rank3/phi": "916f0381dd469d83",
	}
	goldenShock4Rank = map[string]string{
		"rank0/U": "65814e0614aabd94", "rank0/dt": "98fd171e79f04728", "rank0/t": "5a71ba1028428be8",
		"rank1/U": "016941685c19e17e", "rank1/dt": "98fd171e79f04728", "rank1/t": "5a71ba1028428be8",
		"rank2/U": "75e0f60ed0e53bcf", "rank2/dt": "98fd171e79f04728", "rank2/t": "5a71ba1028428be8",
		"rank3/U": "d138e31bb40e8880", "rank3/dt": "98fd171e79f04728", "rank3/t": "5a71ba1028428be8",
	}
)

// small overrides that shrink the new scenarios to smoke-test size
// without touching their physics parameters.
func shrink(pairs ...string) []scenario.Param {
	var out []scenario.Param
	for i := 0; i+2 < len(pairs); i += 3 {
		out = append(out, scenario.Param{Instance: pairs[i], Key: pairs[i+1], Value: pairs[i+2]})
	}
	return out
}

// TestKelvinHelmholtzScenarioRuns: the KH scenario is runnable end to
// end and actually advances the shear layer.
func TestKelvinHelmholtzScenarioRuns(t *testing.T) {
	f := buildAndGo(t, loadScenario(t, "kelvin_helmholtz"), nil, shrink(
		"grace", "nx", "32", "grace", "ny", "32", "driver", "maxSteps", "4")...)
	if ts := statsSeries(t, f, "t"); len(ts) == 0 {
		t.Fatal("no time series recorded")
	}
	if got, _ := f.ClassOf("ic"); got != "KelvinHelmholtzIC" {
		t.Fatalf("ic class: %s", got)
	}
}

// TestRichtmyerMeshkovScenarioRuns: the first sweep point of the RM
// scenario runs end to end.
func TestRichtmyerMeshkovScenarioRuns(t *testing.T) {
	c := loadScenario(t, "richtmyer_meshkov")
	pts := c.Expand()
	if len(pts) != 3 {
		t.Fatalf("points: %d", len(pts))
	}
	if v, _ := pts[0].Param("driver", "maxSteps"); v != "10" {
		t.Fatalf("first point maxSteps: %q", v)
	}
	f := buildAndGo(t, pts[0], nil, shrink(
		"grace", "nx", "32", "grace", "ny", "16", "driver", "maxSteps", "4")...)
	if ts := statsSeries(t, f, "t"); len(ts) == 0 {
		t.Fatal("no time series recorded")
	}
}

// TestFluxSweepScenarioPointsRun: every point of the flux-comparison
// sweep runs end to end with its own flux component in the slot.
func TestFluxSweepScenarioPointsRun(t *testing.T) {
	c := loadScenario(t, "flux_sweep")
	for _, p := range c.Expand() {
		f := buildAndGo(t, p, nil, shrink(
			"grace", "nx", "24", "grace", "ny", "24", "driver", "maxSteps", "3")...)
		if got, _ := f.ClassOf("flux"); got != p.ClassOf("flux") {
			t.Fatalf("flux class: %s, want %s", got, p.ClassOf("flux"))
		}
		if ts := statsSeries(t, f, "t"); len(ts) == 0 {
			t.Fatalf("%s: no time series", p.ClassOf("flux"))
		}
	}
}

// TestIgnitionBatchScenarioRuns: two mechanism points of the ignition
// batch run end to end and disagree on the trajectory (different
// chemistry must actually reach the solver).
func TestIgnitionBatchScenarioRuns(t *testing.T) {
	c := loadScenario(t, "ignition_batch")
	pts := c.Expand()
	if len(pts) != 6 {
		t.Fatalf("points: %d", len(pts))
	}
	small := shrink("driver", "tEnd", "2e-5", "driver", "nOut", "3")
	temps := make([][]float64, 2)
	for i, p := range []*scenario.Compiled{pts[0], pts[2]} {
		f := buildAndGo(t, p, nil, small...)
		comp, err := f.Lookup("driver")
		if err != nil {
			t.Fatal(err)
		}
		temps[i] = comp.(*components.IgnitionDriver).Temps
		if len(temps[i]) == 0 {
			t.Fatalf("point %d recorded no temperatures", i)
		}
	}
	if m0, _ := pts[0].Param("chem", "mech"); m0 != "h2air" {
		t.Fatalf("point 0 mech: %q", m0)
	}
	if m2, _ := pts[2].Param("chem", "mech"); m2 != "h2air-lite" {
		t.Fatalf("point 2 mech: %q", m2)
	}
	same := len(temps[0]) == len(temps[1])
	if same {
		for i := range temps[0] {
			if temps[0][i] != temps[1][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("h2air and h2air-lite produced identical trajectories")
	}
}
