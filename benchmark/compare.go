package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Verdicts of -compare, per workload and gated metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictChanged    = "changed"    // an exact count moved
)

// lookup finds a metric in a workload's result: the end-to-end pass
// first (its samples are pooled over repetitions), then the per-layer
// pass.
func (wr *workloadResult) lookup(name string) (value, bool) {
	for _, p := range []*passResult{wr.EndToEnd, wr.PerLayer} {
		if p != nil {
			if v, ok := p.Metrics[name]; ok {
				return v, true
			}
		}
	}
	return value{}, false
}

func (v value) spread() float64 {
	if v.Q1 == nil || v.Q3 == nil || v.Value == 0 {
		return 0
	}
	return (*v.Q3 - *v.Q1) / math.Abs(v.Value)
}

// judge compares one metric across two results.
func judge(def *metricDef, old, new value) (verdict string, ratio float64) {
	ratio = math.NaN()
	if old.Value != 0 {
		ratio = new.Value / old.Value
	}
	worse := new.Value > old.Value
	if def.Better == "higher" {
		worse = new.Value < old.Value
	}
	if def.Exact {
		switch {
		case new.Value == old.Value:
			return verdictOK, ratio
		case worse:
			return verdictRegressed, ratio
		}
		return verdictChanged, ratio
	}
	limit := def.Bound * math.Abs(old.Value)
	switch {
	case worse && math.Abs(new.Value-old.Value) > limit:
		return verdictRegressed, ratio
	case math.Max(old.spread(), new.spread()) > def.Bound:
		return verdictUnresolved, ratio
	}
	return verdictOK, ratio
}

// gated metrics are the ones a regression of which fails -compare:
// every bounded timing, plus the exact on-disk size.
func (def *metricDef) gated() bool {
	return def.Bound > 0 || def.Name == "ckpt.disk_mb"
}

func failedFrac(wr *workloadResult) float64 {
	var attempted, failed int
	for _, p := range []*passResult{wr.EndToEnd, wr.PerLayer} {
		if p != nil {
			attempted += p.Attempted
			failed += p.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareResults prints, per workload and gated metric, old, new,
// ratio, bound and verdict, and returns how many regressed (a higher
// failed_frac counts as one).
func compareResults(old, new *resultFile, w io.Writer) (regressions, unresolved int) {
	if old.Host.CalibNs > 0 && new.Host.CalibNs > 0 {
		fmt.Fprintf(w, "host.calib_ns  old %.4g  new %.4g  ratio %.3f  (machine drift, not code)\n",
			old.Host.CalibNs, new.Host.CalibNs, new.Host.CalibNs/old.Host.CalibNs)
	}
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %7s %6s  %s\n", "workload", "metric", "old", "new", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		o, n := old.Workloads[wl.Name], new.Workloads[wl.Name]
		if o == nil || n == nil {
			continue
		}
		for i := range metricDefs {
			def := &metricDefs[i]
			if !def.gated() {
				continue
			}
			ov, ok1 := o.lookup(def.Name)
			nv, ok2 := n.lookup(def.Name)
			if !ok1 || !ok2 || (ov.Value == 0 && nv.Value == 0) {
				continue
			}
			verdict, ratio := judge(def, ov, nv)
			switch verdict {
			case verdictRegressed:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
			if def.Exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-15s %-18s %12.6g %12.6g %7.3f %6s  %s\n", wl.Name, def.Name, ov.Value, nv.Value, ratio, bound, verdict)
		}
		of, nf := failedFrac(o), failedFrac(n)
		verdict := verdictOK
		if nf > of {
			verdict = verdictRegressed
			regressions++
		}
		fmt.Fprintf(w, "%-15s %-18s %12.6g %12.6g %7s %6s  %s\n", wl.Name, "failed_frac", of, nf, "", "0", verdict)
	}
	return regressions, unresolved
}

func compareFiles(oldPath, newPath string, w io.Writer) (int, error) {
	var old, new resultFile
	if err := readJSON(oldPath, &old); err != nil {
		return 2, err
	}
	if err := readJSON(newPath, &new); err != nil {
		return 2, err
	}
	regressions, unresolved := compareResults(&old, &new, w)
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1, nil
	}
	return 0, nil
}

// exactDiffs lists every exact count that differs between two results.
func exactDiffs(a, b *resultFile) []string {
	var diffs []string
	for _, wl := range workloads {
		x, y := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if x == nil || y == nil {
			continue
		}
		for i := range metricDefs {
			def := &metricDefs[i]
			if !def.Exact {
				continue
			}
			xv, _ := x.lookup(def.Name)
			yv, _ := y.lookup(def.Name)
			if xv.Value != yv.Value {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v vs %v", wl.Name, def.Name, xv.Value, yv.Value))
			}
		}
	}
	return diffs
}

// selfCheck runs every workload twice, back to back, and fails if the
// two sets disagree: a gated metric apart by more than its own bound in
// either direction, or any exact count different at all. Its two result
// files are the pair committed under benchmark/results.
func selfCheck(seed int64, seconds float64, dir string) (int, error) {
	if dir == "" {
		dir = filepath.Join("benchmark", "results")
	}
	outs := []string{filepath.Join(dir, "seed-a.json"), filepath.Join(dir, "seed-b.json")}
	sets, err := runSets(seed, seconds, outs, io.Discard)
	if err != nil {
		return 1, err
	}
	fmt.Println("a -> b")
	r1, u1 := compareResults(sets[0], sets[1], os.Stdout)
	fmt.Println("b -> a")
	r2, u2 := compareResults(sets[1], sets[0], os.Stdout)
	diffs := exactDiffs(sets[0], sets[1])
	for _, d := range diffs {
		fmt.Println("exact count differs:", d)
	}
	failed := failedOps(sets[0]) + failedOps(sets[1])
	fmt.Printf("selfcheck: %d beyond bound, %d unresolved, %d exact counts differ, %d operations failed\n", r1+r2, u1+u2, len(diffs), failed)
	if r1+r2 > 0 || len(diffs) > 0 || failed > 0 {
		return 1, nil
	}
	return 0, nil
}
