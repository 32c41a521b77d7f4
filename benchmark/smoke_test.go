package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload runs every workload at toy size, both passes,
// and checks that every declared metric is emitted exactly once with a
// finite value, that the outputs verify, and that the workloads keep
// the layers apart the way the metric table says.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Run from a scratch directory so .bench_build lands there.
	wd, _ := os.Getwd()
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	results := map[string]map[string]value{}
	for i := range workloads {
		w := &workloads[i]
		seen := map[string]value{}
		for _, layers := range []bool{false, true} {
			p, err := runOne(w, toySizes, 1, layers, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s (layers=%v): %d of %d operations failed: %v", w.Name, layers, p.Failed, p.Attempted, p.Errors)
			}
			for _, def := range metricDefs {
				v, ok := p.Metrics[def.Name]
				if def.EndToEnd == layers {
					// The other pass's metric; the one-workload end-to-end
					// metrics may ride along in the untraced pass.
					continue
				}
				if !ok || !finite(v.Value) || v.Unit != def.Unit {
					t.Errorf("%s: metric %s = %+v (present %v)", w.Name, def.Name, v, ok)
				}
				if def.EndToEnd && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v must never be 0", w.Name, def.Name, v.Value)
				}
				seen[def.Name] = v
			}
			for name := range p.Metrics {
				if findMetric(name) == nil {
					t.Errorf("%s: undeclared metric %s", w.Name, name)
				}
			}
			if layers && p.Ledger != nil && math.Abs(p.Ledger.sum()-p.Ledger.Wall) > 1e-6*p.Ledger.Wall {
				t.Errorf("%s: ledger rows sum to %v, wall is %v", w.Name, p.Ledger.sum(), p.Ledger.Wall)
			}
		}
		if len(seen) != len(metricDefs) {
			t.Errorf("%s: %d metrics seen, %d declared", w.Name, len(seen), len(metricDefs))
		}
		results[w.Name] = seen
	}

	// A layer the workload bypasses reads zero on every one of its metrics.
	for i := range workloads {
		w := &workloads[i]
		for name, v := range results[w.Name] {
			layer, _, dotted := strings.Cut(name, ".")
			switch {
			case !dotted, layer == "ledger", layer == "obs", layer == "host":
				continue
			case layer == "driver":
				layer = "core"
			}
			if !w.uses(layer) && v.Value != 0 {
				t.Errorf("%s bypasses %s, yet %s = %v", w.Name, layer, name, v.Value)
			}
		}
	}
	// And the separations the design rests on, by name.
	for _, tc := range []struct {
		metric  string
		zero    []string
		nonzero []string
	}{
		{"transport.properties_calls", []string{"shock_wN", "shock_r2", "ckpt_cycle", "ignition_cells"}, []string{"flame_w1", "flame_wN"}},
		{"chem.source_calls", []string{"shock_wN", "shock_r2", "ckpt_cycle"}, []string{"flame_w1", "flame_wN", "ignition_cells"}},
		{"cvode.steps", []string{"shock_wN", "shock_r2", "ckpt_cycle"}, []string{"flame_w1", "flame_wN", "ignition_cells"}},
		{"euler.phase_s", []string{"flame_w1", "flame_wN", "ignition_cells"}, []string{"shock_wN", "shock_r2", "ckpt_cycle"}},
		{"mpi.sends_per_step", []string{"flame_w1", "flame_wN", "shock_wN", "ckpt_cycle", "ignition_cells"}, []string{"shock_r2"}},
		{"exec.epochs", []string{"flame_w1"}, nil},
		{"ckpt.saves", []string{"shock_wN"}, []string{"ckpt_cycle"}},
		{"serve.warm_starts", []string{"shock_wN"}, []string{"serve_mix"}},
	} {
		for _, w := range tc.zero {
			if v := results[w][tc.metric].Value; v != 0 {
				t.Errorf("%s on %s = %v, want 0", tc.metric, w, v)
			}
		}
		for _, w := range tc.nonzero {
			if v := results[w][tc.metric].Value; v <= 0 {
				t.Errorf("%s on %s = %v, want > 0", tc.metric, w, v)
			}
		}
	}
}

// BENCHMARK.json restates the metric table for the driver; the two must
// not drift apart, and the file must stay inside the driver's limits.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the metric table disagree:\n got %+v\nwant %+v", got, want)
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 || len(raw) > 64<<10 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d bytes", len(got.EndToEnd), len(got.PerLayer), len(raw))
	}
	names := map[string]bool{}
	for _, m := range append(got.EndToEnd, got.PerLayer...) {
		if names[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate or too long", m.Name, m.Unit)
		}
		names[m.Name] = true
	}
	if !names["setup_s"] {
		t.Error("setup_s is required")
	}
	for _, m := range got.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range got.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}
