package main

import (
	"errors"
	"path/filepath"
	"testing"
)

func testConfig() *runConfig {
	return &runConfig{w: &workloads[0], minReps: 5}
}

// A repetition that fails gives no sample and must not count toward the
// five timed ones.
func TestMeasureCountsOnlyRepetitionsThatGaveASample(t *testing.T) {
	calls := 0
	p := testConfig().measure(func() (repOut, error) {
		calls++
		if calls%3 == 0 {
			return repOut{}, errors.New("boom")
		}
		return repOut{seconds: 0.5, work: 10, ops: 1}, nil
	})
	if n := p.Metrics["run_s"].N; n != 5 {
		t.Errorf("%d timed samples, want 5", n)
	}
	if p.Failed == 0 || p.Attempted != calls {
		t.Errorf("attempted %d failed %d after %d calls", p.Attempted, p.Failed, calls)
	}
}

func TestMeasureGivesUpWhenEveryRepetitionFails(t *testing.T) {
	calls := 0
	p := testConfig().measure(func() (repOut, error) {
		calls++
		return repOut{}, errors.New("boom")
	})
	if len(p.Metrics) != 0 || p.Failed != calls || calls > 6 {
		t.Errorf("metrics %v, failed %d, calls %d", p.Metrics, p.Failed, calls)
	}
}

func TestSetLatenciesFlagsAnUnsupportedPercentile(t *testing.T) {
	p := &passResult{Metrics: map[string]value{}}
	p.setLatencies(make([]float64, 104), nil)
	if len(p.Notes) != 0 {
		t.Errorf("104 samples leave ten beyond p90, yet: %v", p.Notes)
	}
	p.setLatencies(make([]float64, 99), nil)
	if len(p.Notes) != 1 {
		t.Errorf("99 samples leave nine beyond p90, want one note, got %v", p.Notes)
	}
}

// A child that died before writing, or wrote another workload or the
// other pass, must read as an error, never as a result.
func TestReadPassRejectsWhatTheChildDidNotWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.json")
	if _, err := readPass(path, "shock_wN", false); err == nil {
		t.Error("a missing file must be an error")
	}
	rf := resultFile{Workloads: map[string]*workloadResult{"shock_wN": {EndToEnd: &passResult{Attempted: 6}}}}
	if err := writeJSON(path, rf); err != nil {
		t.Fatal(err)
	}
	if p, err := readPass(path, "shock_wN", false); err != nil || p.Attempted != 6 {
		t.Errorf("end-to-end pass: %+v, %v", p, err)
	}
	if _, err := readPass(path, "shock_wN", true); err == nil {
		t.Error("the file holds no per-layer pass")
	}
	if _, err := readPass(path, "flame_w1", false); err == nil {
		t.Error("the file holds another workload")
	}
}
