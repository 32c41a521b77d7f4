package main

import (
	"math"
	"sort"
)

// summary is how a repeated timing is reported: the median, the
// quartiles around it, and the sample count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// quantile returns the q-quantile of sorted xs with the "exclusive"
// method Python's statistics.quantiles uses by default (position
// q*(n+1) on a 1-based index, linear interpolation, clamped to the
// ends) — the same arithmetic the acceptance check applies to the
// benchmark's own outputs.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// percentile returns the p-th percentile (nearest rank) of xs and
// whether n samples support it: a tail percentile is only reported
// when at least ten samples lie beyond it.
func percentile(xs []float64, p float64) (value float64, supported bool) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= 10
}
