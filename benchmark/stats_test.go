package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRankAndSupport(t *testing.T) {
	for _, tc := range []struct {
		name      string
		xs        []float64
		p         float64
		want      float64
		supported bool
	}{
		{"p50 of 20: 10 beyond", seq(20), 50, 10, true},
		{"p50 of 19: 9 beyond", seq(19), 50, 10, false},
		{"p90 of 100: 10 beyond", seq(100), 90, 90, true},
		{"p90 of 99: 9 beyond", seq(99), 90, 90, false},
		{"p99 of 1000: 10 beyond", seq(1000), 99, 990, true},
		{"p99 of 999", seq(999), 99, 990, false},
		{"p99 of 5 is the max", seq(5), 99, 5, false},
		{"single sample", []float64{7}, 50, 7, false},
	} {
		got, ok := percentile(tc.xs, tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("%s: percentile = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.supported)
		}
	}
	if v, ok := percentile(nil, 50); !math.IsNaN(v) || ok {
		t.Errorf("empty: got %v, %v; want NaN, false", v, ok)
	}
}

// Run-to-run spreads of the benchmark are read with Python's
// statistics.quantiles(xs, n=4); these expectations are its outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
		if got := median(tc.xs); got != tc.m {
			t.Errorf("median(%v) = %v; want %v", tc.xs, got, tc.m)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v; want (8.25-2.75)/5.5 = 1", got)
	}
}
