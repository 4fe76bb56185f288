package main

import "testing"

func TestMedian(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 9, 2, 7}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range tests {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4)[0]
// and [2], the quartiles the spread of a benchmark metric is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	tests := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 9, 2, 7}, 1.5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.5, 0.1, 7.25, 3.5, 1, 1, 8}, 1, 7.25},
	}
	for _, tc := range tests {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.self_s", "mem.replay_ns_per_txn", "smx.stall_backpressure_cycles", "9lives", "a-b.c_d"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "métrique", "x+y", "a12345678901234567890123456789012345678901234567890123456789012345"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("metricSet.set accepted a name outside the grammar")
		}
	}()
	var m metricSet
	m.set("bad name", "s", 1)
}
