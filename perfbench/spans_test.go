package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	tests := []struct {
		lo, hi float64
		ivs    [][2]float64
		want   float64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]float64{{1, 3}}, 2},
		{0, 10, [][2]float64{{1, 5}, {3, 8}}, 7},         // overlapping workers count once
		{0, 10, [][2]float64{{3, 8}, {1, 5}, {2, 4}}, 7}, // any order, nested
		{0, 10, [][2]float64{{-2, 1}, {9, 12}}, 2},       // clipped to the parent
		{0, 10, [][2]float64{{1, 2}, {4, 6}, {5, 7}}, 4}, // disjoint plus overlap
		{0, 10, [][2]float64{{11, 12}}, 0},               // wholly outside
	}
	for _, tc := range tests {
		if got := covered(tc.lo, tc.hi, tc.ivs); !near(got, tc.want) {
			t.Errorf("covered(%v, %v, %v) = %v, want %v", tc.lo, tc.hi, tc.ivs, got, tc.want)
		}
	}
}

// TestSelfTimeSweepWorkers lays out a sweep the way the traced pass
// records it: two pool workers running overlapping runs, each run with
// an input-build child, and a direct run whose Next and policy time are
// aggregates.
func TestSelfTimeSweepWorkers(t *testing.T) {
	r := newRecorder()
	at := func(s float64) time.Time { return r.origin.Add(time.Duration(s * float64(time.Second))) }
	sweep := r.interval(-1, "sweep", "", at(0), at(10))
	pick := r.interval(sweep, "inputs.build", "", at(0), at(1))
	w0 := r.interval(sweep, "harness.run", "a", at(1), at(6))
	w1 := r.interval(sweep, "harness.run", "b", at(1.5), at(9))
	b0 := r.interval(w0, "inputs.build", "a", at(1), at(2))

	run := r.interval(-1, "sim.run", "c", at(20), at(30))
	r.total(run, "workloads.next", "c", 4*time.Second, 1000)
	r.total(run, "policy.decide", "c", time.Second, 10)
	r.computeSelf()

	want := map[int]float64{
		sweep: 10 - 9, // [0,9] is covered once although the workers overlap
		pick:  1,
		w0:    5 - 1,
		w1:    7.5,
		b0:    1,
		run:   10 - 4 - 1,
	}
	for id, w := range want {
		if got := r.spans[id].Self; !near(got, w) {
			t.Errorf("span %d (%s) self = %v, want %v", id, r.spans[id].Name, got, w)
		}
	}
	// A run's self time plus its children's equals its duration.
	dur, self, _ := r.sum("sim.run")
	next, _, _ := r.sum("workloads.next")
	decide, _, _ := r.sum("policy.decide")
	if !near(self+next+decide, dur) {
		t.Errorf("sim.run self %v + next %v + decide %v != run %v", self, next, decide, dur)
	}
	if got := r.durations("harness.run"); len(got) != 2 || !near(got[0], 5) || !near(got[1], 7.5) {
		t.Errorf("harness.run durations = %v", got)
	}
}
