package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"spawnsim/internal/harness"
	"spawnsim/internal/sim"
)

// bench is one workload, set up, with its failure ledger: a run fails if
// it errors, aborts, fails the invariant audit or fails an output check.
type bench struct {
	workload  string
	seed      int64
	runs      []run // the seeded workloads' batch; nil for the sweep
	obs       bool  // observed-dp: the program's observability is on
	ref       []harness.Fig5Point
	attempted int
	failed    int
	failures  []string
	notes     []string
}

// setup prepares everything the benchmark needs before its first timed
// simulation. Inputs are not built here: building them is part of
// every run, as it is when spawnsim runs a benchmark.
func setup(workload string, seed int64) (*bench, error) {
	b := &bench{workload: workload, seed: seed, obs: workload == wlObserved}
	switch workload {
	case wlSingleDP, wlSingleFlat, wlObserved:
		runs, err := seededRuns(workload, seed)
		if err != nil {
			return nil, err
		}
		b.runs = runs
	case wlSweep:
		ref, err := readFig5CSV(filepath.Join("results", "fig5-"+sweepBench+".csv"))
		if err != nil {
			return nil, err
		}
		b.ref = ref
		b.notes = append(b.notes, "sweep-graph500 goes through Pool.Fig5, which names inputs by benchmark only: it runs on the registry seed, whatever --seed says")
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	return b, nil
}

func (b *bench) fail(runs int, format string, args ...any) {
	b.failed += runs
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// batch is one pass over the workload's runs.
type batch struct {
	wall, cpu time.Duration
	outs      []*runOut           // direct runs, in batch order; nil where a run failed
	points    []harness.Fig5Point // the sweep's Figure 5 points
}

// direct runs the batch serially, one run after another.
func (b *bench) direct(runs []run, o runOpts) *batch {
	bt := &batch{outs: make([]*runOut, len(runs))}
	c0, t0 := cpuNow(), time.Now()
	for i, r := range runs {
		c1, t1 := cpuNow(), time.Now()
		out, err := execRun(r, o)
		b.attempted++
		if err != nil {
			b.fail(1, "%s: %v", r.label(), err)
			continue
		}
		out.wall, out.cpu = time.Since(t1), cpuNow()-c1
		bt.outs[i] = out
	}
	bt.wall, bt.cpu = time.Since(t0), cpuNow()-c0
	return bt
}

// sweep runs Pool.Fig5 once and checks its points against the
// committed reference.
func (b *bench) sweep(p *harness.Pool) *batch {
	bt := &batch{}
	c0, t0 := cpuNow(), time.Now()
	res, err := p.Fig5(sweepBench)
	bt.wall, bt.cpu = time.Since(t0), cpuNow()-c0
	n := len(b.ref) + 1 // the flat reference plus one run per point
	b.attempted += n
	if err != nil {
		b.fail(n, "Pool.Fig5(%s): %v", sweepBench, err)
		return bt
	}
	bt.points = res.Points
	if bad, _ := b.checkFig5(res.Points); bad > 0 {
		b.fail(bad, "Pool.Fig5(%s): %d points differ from results/fig5-%s.csv", sweepBench, bad, sweepBench)
	}
	return bt
}

// run makes one untraced batch of the workload, as it is timed.
func (b *bench) run(p *harness.Pool) *batch {
	if p != nil {
		return b.sweep(p)
	}
	return b.direct(b.runs, runOpts{obs: b.obs, parent: -1})
}

// sameAs checks that a later batch reproduced the first one exactly.
func (b *bench) sameAs(first, bt *batch) {
	if first.points != nil || bt.points != nil {
		if !equalPoints(first.points, bt.points) {
			b.fail(len(b.ref)+1, "sweep points changed between batches")
		}
		return
	}
	for i, o := range bt.outs {
		f := first.outs[i]
		if o == nil || f == nil {
			continue // already counted as failed
		}
		if !sameResult(f.res, o.res) || f.traceBytes != o.traceBytes {
			b.fail(1, "%s: result changed between batches", b.runs[i].label())
		}
	}
}

// checkRun applies the output checks every direct run must pass.
func (b *bench) checkRun(r run, o *runOut) {
	res := o.res
	switch {
	case res.Cycles == 0:
		b.fail(1, "%s: zero cycles", r.label())
	case r.scheme == "flat" && (res.ChildKernels != 0 || res.OffloadedFraction != 0):
		b.fail(1, "%s: flat run offloaded work", r.label())
	case o.snap != nil && uint64(seriesSum(o.snap, "mem_transactions")) != res.Transactions:
		b.fail(1, "%s: metrics and Result disagree on transactions", r.label())
	case o.prof != nil && o.prof.Cycles != uint64(res.Cycles):
		b.fail(1, "%s: profile covers %d cycles of %d", r.label(), o.prof.Cycles, res.Cycles)
	case b.obs && o.traceEvents == 0:
		b.fail(1, "%s: no trace events", r.label())
	}
}

// checkCounts checks what the wrappers counted against the Result: every
// accepted decision launched a child kernel or a DTBL group, and every
// decision that was not deferred is a launch offer.
func (b *bench) checkCounts(r run, o *runOut) {
	c, res := &o.counts, o.res
	if c.accepted != uint64(res.ChildKernels+res.DTBLGroups) || c.accepted+c.declined != uint64(res.LaunchOffers) {
		b.fail(1, "%s: policy saw %d accepted, %d declined; Result has %d children, %d groups, %d offers",
			r.label(), c.accepted, c.declined, res.ChildKernels, res.DTBLGroups, res.LaunchOffers)
	}
}

// countPass reruns runs with counting wrappers (no timing) to get each
// run's exact simulated instruction count, and checks that the wrapped
// runs reproduce want (the same runs, unwrapped) exactly.
func (b *bench) countPass(runs []run, want *batch) []*runOut {
	outs := b.direct(runs, runOpts{obs: b.obs, tr: &tracer{}, parent: -1}).outs
	for i, o := range outs {
		if o == nil {
			continue
		}
		b.checkRun(runs[i], o)
		b.checkCounts(runs[i], o)
		if want != nil && want.outs[i] != nil && !sameResult(want.outs[i].res, o.res) {
			b.fail(1, "%s: counting wrappers changed the Result", runs[i].label())
		}
	}
	return outs
}

// timedPass measures the end-to-end metrics with tracing off: as many
// whole batches as fit in f.seconds, then the counting passes that give
// the exact simulated work.
func timedPass(b *bench, f flags, m *metricSet) error {
	probes, err := probeSetup(f)
	if err != nil {
		return err
	}
	var e endToEnd
	if b.runs == nil {
		err = b.timedSweep(f, &e)
	} else {
		err = b.timedSeeded(f, &e)
	}
	if err != nil {
		return err
	}
	e.setup = median(probes)
	e.set(m)
	return nil
}

// endToEnd holds the end-to-end measurements of one timed pass.
type endToEnd struct {
	wall, cpu, cycles, instrs, setup, rss float64
}

// set sets the end-to-end metrics of BENCHMARK.json.
func (e *endToEnd) set(m *metricSet) {
	m.set("wall_s", "s", e.wall)
	m.set("cpu_s", "s", e.cpu)
	m.set("sim_mcycles_per_s", "Mcycles/s", ratio(e.cycles, e.wall)/1e6)
	m.set("sim_minstr_per_s", "Minstr/s", ratio(e.instrs, e.wall)/1e6)
	m.set("setup_s", "s", e.setup)
	m.set("peak_rss_mb", "MB", e.rss)
}

// timedBatches runs untraced batches until the next would end after
// seconds, checking each against the first.
func (b *bench) timedBatches(p *harness.Pool, seconds int) []*batch {
	var batches []*batch
	start := time.Now()
	for {
		bt := b.run(p)
		if len(batches) == 0 {
			for i, o := range bt.outs {
				if o != nil {
					b.checkRun(b.runs[i], o)
				}
			}
		} else {
			b.sameAs(batches[0], bt)
		}
		batches = append(batches, bt)
		if time.Since(start).Seconds()+median(batchWalls(batches)) > float64(seconds) {
			break
		}
	}
	q1, q3 := quartiles(batchWalls(batches))
	b.notes = append(b.notes, fmt.Sprintf("%d timed batches: batch wall median %.4f s, quartiles %.4f..%.4f",
		len(batches), median(batchWalls(batches)), q1, q3))
	return batches
}

// timedSweep times Pool.Fig5 batches as measured; its input is always
// the registry's.
func (b *bench) timedSweep(f flags, e *endToEnd) error {
	batches := b.timedBatches(&harness.Pool{Workers: loadWorkers()}, f.seconds)
	e.rss = peakRSSMB()
	e.wall, e.cpu = median(batchWalls(batches)), median(batchCPUs(batches))
	runs, err := sweepRuns()
	if err != nil {
		return err
	}
	outs := b.countPass(runs, nil)
	if !equalPoints(batches[0].points, fig5Points(runs, outs)) {
		b.fail(len(runs), "direct replica of the sweep disagrees with Pool.Fig5")
	}
	for _, o := range outs {
		if o != nil {
			e.instrs += float64(o.counts.instructions())
			e.cycles += float64(o.res.Cycles)
		}
	}
	return nil
}

// timedSeeded times a seeded workload. Its inputs, and so its work,
// change with the seed: AMR/baseline launches 52k to 98k children
// depending on it. A run's host time per simulated instruction barely
// does, so the workload reports host time for the registry inputs'
// work: for each run, the median host seconds per warp instruction over
// every batch that ran it (the timed batches on this seed's inputs and
// one reference batch on the registry inputs), times the run's
// instruction count on the registry input. Memory is the high-water
// mark after the reference batch, which runs first.
func (b *bench) timedSeeded(f flags, e *endToEnd) error {
	refRuns, err := seededRuns(b.workload, defaultSeed)
	if err != nil {
		return err
	}
	ref := b.direct(refRuns, runOpts{obs: b.obs, parent: -1})
	e.rss = peakRSSMB()
	batches := b.timedBatches(nil, f.seconds)
	here := b.countPass(b.runs, batches[0])
	there := here
	if b.seed != defaultSeed {
		there = b.countPass(refRuns, ref)
	} else {
		b.sameAs(ref, batches[0])
	}
	for i, r := range b.runs {
		if here[i] == nil || there[i] == nil {
			continue // already counted as failed
		}
		n, nRef := float64(here[i].counts.instructions()), float64(there[i].counts.instructions())
		var walls, cpus []float64
		for _, bt := range batches {
			if o := bt.outs[i]; o != nil {
				walls = append(walls, o.wall.Seconds()/n)
				cpus = append(cpus, o.cpu.Seconds()/n)
			}
		}
		if o := ref.outs[i]; o != nil {
			walls = append(walls, o.wall.Seconds()/nRef)
			cpus = append(cpus, o.cpu.Seconds()/nRef)
		}
		e.wall += median(walls) * nRef
		e.cpu += median(cpus) * nRef
		e.instrs += nRef
		e.cycles += float64(there[i].res.Cycles)
		b.notes = append(b.notes, fmt.Sprintf("%s: %.0f warp instructions (%.0f on the registry input), %.1f ns each (median of %d)",
			r.label(), n, nRef, 1e9*median(walls), len(walls)))
	}
	return nil
}

func batchWalls(bs []*batch) []float64 {
	out := make([]float64, len(bs))
	for i, bt := range bs {
		out[i] = bt.wall.Seconds()
	}
	return out
}

func batchCPUs(bs []*batch) []float64 {
	out := make([]float64, len(bs))
	for i, bt := range bs {
		out[i] = bt.cpu.Seconds()
	}
	return out
}

// fig5Points folds direct sweep runs (flat first) into Figure 5 points
// the way Pool.Fig5 does.
func fig5Points(runs []run, outs []*runOut) []harness.Fig5Point {
	if len(outs) == 0 || outs[0] == nil {
		return nil
	}
	flat := float64(outs[0].res.Cycles)
	var pts []harness.Fig5Point
	for i, o := range outs[1:] {
		if o == nil {
			return nil
		}
		t, _ := strconv.Atoi(strings.TrimPrefix(runs[i+1].scheme, "threshold:"))
		pts = append(pts, harness.Fig5Point{Threshold: float64(t), Offload: o.res.OffloadedFraction, Speedup: flat / float64(o.res.Cycles)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Offload < pts[j].Offload })
	return pts
}

func equalPoints(a, b []harness.Fig5Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readFig5CSV reads a committed Figure 5 result file.
func readFig5CSV(path string) ([]harness.Fig5Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) < 2 || strings.Join(rows[0], ",") != "benchmark,threshold,offload,speedup" {
		return nil, fmt.Errorf("%s: not a Figure 5 CSV", path)
	}
	var pts []harness.Fig5Point
	for _, row := range rows[1:] {
		var v [3]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(row[i+1], 64); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		pts = append(pts, harness.Fig5Point{Threshold: v[0], Offload: v[1], Speedup: v[2]})
	}
	return pts, nil
}

// sig6 formats v to the six significant digits the reference holds.
func sig6(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// checkFig5 compares points with the reference to six significant
// digits; it returns how many differ and the largest relative error of
// any offload or speedup value.
func (b *bench) checkFig5(pts []harness.Fig5Point) (bad int, maxRel float64) {
	if len(pts) != len(b.ref) {
		return len(b.ref) + 1, math.Inf(1)
	}
	rel := func(got, want float64) float64 {
		if want == 0 {
			return math.Abs(got)
		}
		return math.Abs(got-want) / math.Abs(want)
	}
	for i, p := range pts {
		r := b.ref[i]
		if sig6(p.Threshold) != sig6(r.Threshold) || sig6(p.Offload) != sig6(r.Offload) || sig6(p.Speedup) != sig6(r.Speedup) {
			bad++
		}
		maxRel = math.Max(maxRel, math.Max(rel(p.Offload, r.Offload), rel(p.Speedup, r.Speedup)))
	}
	return bad, maxRel
}

// byScheme indexes results by scheme (a sweep's runs are distinct
// schemes of one benchmark).
func byScheme(outs []*harness.Outcome) map[string]*sim.Result {
	m := make(map[string]*sim.Result, len(outs))
	for _, o := range outs {
		m[o.Spec.Scheme] = o.Result
	}
	return m
}
