package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 2, 3, 4},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.q2) || !near(s.Q3, tc.q3) || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.xs, s, tc.q1, tc.q2, tc.q3)
		}
	}
	if s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s.spread(), 1.0) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s.spread())
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 104)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	p90, ok := percentile(xs, 90)
	if p90 != 94 || !ok {
		t.Errorf("p90 of 1..104 = %v supported=%v, want 94 with exactly ten samples beyond", p90, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has only nine beyond it and must not be supported")
	}
	if p50, ok := percentile(xs, 50); p50 != 52 || !ok {
		t.Errorf("p50 = %v supported=%v", p50, ok)
	}
}
