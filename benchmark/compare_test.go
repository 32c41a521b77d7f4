package main

import (
	"bytes"
	"strings"
	"testing"
)

func timing(v, q1, q3 float64) value { return value{Value: v, Unit: "s", Q1: &q1, Q3: &q3, N: 8} }

func TestJudgeVerdicts(t *testing.T) {
	run, rate, disk := findMetric("run_s"), findMetric("work_per_s"), findMetric("ckpt.disk_mb")
	for _, tc := range []struct {
		name     string
		def      *metricDef
		old, new value
		want     string
	}{
		{"within bound", run, timing(1, 0.99, 1.01), timing(1.2, 1.19, 1.21), verdictOK},
		{"slower beyond bound", run, timing(1, 0.99, 1.01), timing(1.3, 1.29, 1.31), verdictRegressed},
		{"faster is never a regression", run, timing(1, 0.99, 1.01), timing(0.5, 0.49, 0.51), verdictOK},
		{"spread wider than bound", run, timing(1, 0.8, 1.1), timing(1.02, 1.0, 1.04), verdictUnresolved},
		{"higher is better: lower rate regresses", rate, timing(100, 99, 101), timing(70, 69, 71), verdictRegressed},
		{"higher is better: higher rate is fine", rate, timing(100, 99, 101), timing(150, 149, 151), verdictOK},
		{"exact equal", disk, value{Value: 5.7}, value{Value: 5.7}, verdictOK},
		{"exact grew", disk, value{Value: 5.7}, value{Value: 5.8}, verdictRegressed},
		{"exact shrank", disk, value{Value: 5.7}, value{Value: 5.6}, verdictChanged},
	} {
		if got, _ := judge(tc.def, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func resultWith(runS float64, failed int, cells float64) *resultFile {
	return &resultFile{Workloads: map[string]*workloadResult{
		"shock_wN": {
			EndToEnd: &passResult{Attempted: 6, Failed: failed, Metrics: map[string]value{"run_s": timing(runS, runS*0.99, runS*1.01)}},
			PerLayer: &passResult{Attempted: 1, Metrics: map[string]value{"amr.cells_total": {Value: cells, Unit: "count"}}},
		},
	}}
}

func TestCompareResults(t *testing.T) {
	var out bytes.Buffer
	if r, u := compareResults(resultWith(1, 0, 100), resultWith(1.05, 0, 100), &out); r != 0 || u != 0 {
		t.Errorf("5%% slower: %d regressions %d unresolved\n%s", r, u, out.String())
	}
	out.Reset()
	if r, _ := compareResults(resultWith(1, 0, 100), resultWith(1.4, 0, 100), &out); r != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("40%% slower: %d regressions\n%s", r, out.String())
	}
	if r, _ := compareResults(resultWith(1, 0, 100), resultWith(1, 1, 100), &out); r != 1 {
		t.Errorf("a higher failed_frac must count as a regression, got %d", r)
	}
	if d := exactDiffs(resultWith(1, 0, 100), resultWith(1, 0, 101)); len(d) != 1 {
		t.Errorf("exact count moved from 100 to 101: diffs %v", d)
	}
	if d := exactDiffs(resultWith(1, 0, 100), resultWith(2, 0, 100)); len(d) != 0 {
		t.Errorf("timings are not exact counts: diffs %v", d)
	}
}
