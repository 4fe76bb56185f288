package main

import (
	"testing"
	"time"
)

// TestPoolTraceSpans traces a small Figure 5 sweep on two workers (run
// it with -race: Defaults runs on the workers, Progress and Observer on
// the pool's collector) and checks the spans it records.
func TestPoolTraceSpans(t *testing.T) {
	pt := newPoolTrace(2)
	rec, d := newRecorder(), &layerData{}
	t0 := time.Now()
	res, err := pt.pool.Fig5("MM-small")
	t1 := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	pt.record(rec, d, t0, t1)
	rec.computeSelf()

	n := len(res.Points) + 1 // the flat reference and one run per point
	if len(pt.runs) != n || len(pt.outs) != n || len(pt.sets) != n {
		t.Fatalf("%d runs, %d outcomes, %d set-up spans; want %d each", len(pt.runs), len(pt.outs), len(pt.sets), n)
	}
	if d.inputsBuilds != n+1 {
		t.Errorf("inputs.builds = %d, want %d (the threshold pick plus every run)", d.inputsBuilds, n+1)
	}
	for _, o := range pt.outs {
		if !o.Spec.CheckInvariants {
			t.Errorf("%s/%s ran without the invariant audit", o.Spec.Benchmark, o.Spec.Scheme)
		}
	}
	for _, s := range rec.spans {
		if s.Start < 0 || s.End < s.Start || s.Self < -1e-9 || s.End > t1.Sub(rec.origin).Seconds() {
			t.Errorf("span %+v out of order or outside the sweep", s)
		}
	}
	if d.busy <= 0 || d.busy > 1 {
		t.Errorf("pool busy fraction %v, want (0, 1]", d.busy)
	}
	// Two workers overlap, so the runs' summed time exceeds what they
	// cover of the sweep; self time subtracts only the covered part.
	sweepDur, sweepSelf, _ := rec.sum("sweep")
	runs, _, _ := rec.sum("harness.run")
	if sweepSelf < 0 || sweepSelf > sweepDur || runs < sweepDur-sweepSelf {
		t.Errorf("sweep %v s, self %v s, runs %v s", sweepDur, sweepSelf, runs)
	}
}
