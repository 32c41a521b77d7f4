package main

// The driver's view of the benchmark: BENCHMARK.json at the repository
// root must say exactly this (TestBenchmarkJSONMatchesTable).

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 14

func benchmarkJSON() contract {
	c := contract{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for i := range metricDefs {
		def := &metricDefs[i]
		m := contractMetric{Name: def.Name, Unit: def.Unit, Better: def.Better}
		if def.EndToEnd {
			m.Bound = &def.Bound
			c.EndToEnd = append(c.EndToEnd, m)
		} else {
			c.PerLayer = append(c.PerLayer, m)
		}
	}
	return c
}
