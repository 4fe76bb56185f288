package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/harness"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/trace"
)

// layerData is what the traced pass measured, for the per-layer metrics.
type layerData struct {
	runs   []run     // the traced direct runs (the sweep's replica)
	traced []*runOut // their outputs, with metrics and profile
	counts counts    // what the wrappers saw, summed over traced

	untraced, tracedBatch *batch // tracing off / on, same workload
	gc0, gc1              gcSample

	inputsBuild  float64 // host seconds of input generation
	inputsBuilds int
	runDurs      []float64 // per-run wall seconds
	workers      int
	busy         float64 // share of workers × batch wall spent in runs
	queueWait    float64 // seconds specs waited for a pool worker

	replay replayStats

	fig5Best, fig5Err float64
}

// replayStats sums the mem replays of a batch.
type replayStats struct {
	dur                 time.Duration
	txns, l1Hits, l2Acc uint64
	l2Hits              float64
}

// tracedPass measures the per-layer metrics: an untraced batch for
// reference, the same batch traced, a capture pass whose memory stream
// is replayed, and the output checks.
func tracedPass(b *bench, f flags, m *metricSet) error {
	rec := newRecorder()
	d := &layerData{}
	if b.runs != nil {
		b.tracedDirect(rec, d)
	} else if err := b.tracedSweep(rec, d); err != nil {
		return err
	}
	rec.computeSelf()
	d.setMetrics(m, rec, b)
	if err := rec.write(f.spans); err != nil {
		return err
	}
	b.notes = append(b.notes, "spans written to "+f.spans, fmt.Sprintf("peak RSS of the traced process %.1f MB", peakRSSMB()))
	return nil
}

// tracedDirect traces a seeded workload's batch.
func (b *bench) tracedDirect(rec *recorder, d *layerData) {
	d.gc0 = readGC()
	d.untraced = b.direct(b.runs, runOpts{obs: b.obs, parent: -1})
	d.gc1 = readGC()

	root := rec.begin(-1, "batch", b.workload)
	tr := &tracer{timed: true}
	d.tracedBatch = b.direct(b.runs, runOpts{obs: b.obs, layers: true, check: true, tr: tr, rec: rec, parent: root})
	rec.end(root)
	d.runs, d.traced = b.runs, d.tracedBatch.outs
	b.checkTraced(d, d.untraced.outs)

	d.inputsBuild, _, d.inputsBuilds = rec.sum("inputs.build")
	d.runDurs = rec.durations("run")
	d.workers = 1
	d.busy = ratio(sum(d.runDurs), d.tracedBatch.wall.Seconds())
	d.replay = b.captureReplay(d.runs, d.untraced.outs, d.traced)
	b.checkDefaultSeed(d.untraced)
}

// checkTraced checks every traced run against its untraced twin and
// the output checks, and sums what the wrappers counted.
func (b *bench) checkTraced(d *layerData, want []*runOut) {
	for i, o := range d.traced {
		if o == nil {
			continue
		}
		d.counts.add(&o.counts)
		b.checkRun(d.runs[i], o)
		b.checkCounts(d.runs[i], o)
		if want[i] != nil && !sameResult(want[i].res, o.res) {
			b.fail(1, "%s: tracing changed the Result", d.runs[i].label())
		}
	}
}

// captureReplay reruns each run with the memory stream captured, replays
// the stream into a fresh hierarchy, and checks the replay's
// transactions and warp accesses against the run's. One run's stream is
// held at a time.
func (b *bench) captureReplay(runs []run, want, traced []*runOut) replayStats {
	var st replayStats
	cfg := config.K20m()
	for i, r := range runs {
		tr := &tracer{mem: &memTrace{}}
		out, err := execRun(r, runOpts{obs: b.obs, tr: tr, parent: -1})
		b.attempted++
		if err != nil {
			b.fail(1, "%s: capture: %v", r.label(), err)
			continue
		}
		if want[i] != nil && !sameResult(want[i].res, out.res) {
			b.fail(1, "%s: capturing changed the Result", r.label())
		}
		h, dur := tr.mem.replay(cfg)
		warps := out.counts.kinds[kernel.InstrMem]
		ok := h.Transactions == out.res.Transactions && h.WarpAccesses == warps
		if traced[i] != nil {
			ok = ok && uint64(seriesSum(traced[i].snap, "mem_warp_accesses")) == h.WarpAccesses
		}
		if !ok {
			b.fail(1, "%s: mem replay saw %d transactions, %d warp accesses; the run %d, %d",
				r.label(), h.Transactions, h.WarpAccesses, out.res.Transactions, warps)
		}
		st.dur += dur
		st.txns += h.Transactions
		st.l1Hits += uint64(math.Round(h.L1HitRate() * float64(h.Transactions)))
		st.l2Acc += h.L2Accesses()
		st.l2Hits += h.L2HitRate() * float64(h.L2Accesses())
	}
	return st
}

// checkDefaultSeed requires the benchmark's own inputs at the default
// seed to give exactly harness.Run's Results on the registry inputs.
func (b *bench) checkDefaultSeed(base *batch) {
	runs, outs := b.runs, base.outs
	if b.seed != defaultSeed {
		runs, _ = seededRuns(b.workload, defaultSeed)
		outs = b.direct(runs, runOpts{parent: -1}).outs
	}
	for i, r := range runs {
		ref, err := harness.Run(harness.Spec{Benchmark: r.bench, Scheme: r.scheme})
		b.attempted++
		switch {
		case err != nil:
			b.fail(1, "harness.Run %s: %v", r.label(), err)
		case outs[i] != nil && !sameResult(outs[i].res, ref.Result):
			b.fail(1, "%s: default-seed inputs differ from the registry's", r.label())
		}
	}
}

// firstEvent is a trace sink that notes when a run's first event (the
// host launch) arrives: the end of the run's set-up, which input
// generation dominates.
type firstEvent struct {
	run        string // benchmark/scheme
	start, end time.Time
}

func (f *firstEvent) Record(trace.Event) {
	if f.end.IsZero() {
		f.end = time.Now()
	}
}

func (f *firstEvent) Close() error { return nil }

// tracedSweep traces the sweep: Pool.Fig5 untraced and then with
// progress spans, set-up spans and the invariant audit, and a direct
// serial replica of its runs with the wrappers.
func (b *bench) tracedSweep(rec *recorder, d *layerData) error {
	d.workers = loadWorkers()
	d.gc0 = readGC()
	d.untraced = b.sweep(&harness.Pool{Workers: d.workers})
	d.gc1 = readGC()
	_, d.fig5Err = b.checkFig5(d.untraced.points)
	for _, p := range d.untraced.points {
		d.fig5Best = math.Max(d.fig5Best, p.Speedup)
	}

	pt := newPoolTrace(d.workers)
	t0 := time.Now()
	d.tracedBatch = b.sweep(pt.pool)
	t1 := time.Now()
	if !equalPoints(d.untraced.points, d.tracedBatch.points) {
		b.fail(len(b.ref)+1, "traced sweep points differ from untraced ones")
	}
	pt.record(rec, d, t0, t1)

	runs, err := sweepRuns()
	if err != nil {
		return err
	}
	root := rec.begin(-1, "replica", sweepBench)
	rb := b.direct(runs, runOpts{layers: true, check: true, tr: &tracer{timed: true}, rec: rec, parent: root})
	rec.end(root)
	d.runs, d.traced = runs, rb.outs
	want := make([]*runOut, len(runs))
	pool := byScheme(pt.outs)
	for i, r := range runs {
		if res := pool[r.scheme]; res != nil {
			want[i] = &runOut{res: res}
		} else {
			b.fail(1, "%s: no pool outcome", r.label())
		}
	}
	b.checkTraced(d, want)
	d.replay = b.captureReplay(runs, want, d.traced)
	return nil
}

// poolTrace instruments a harness.Pool from outside: run spans from its
// Progress events, set-up spans from each run's Defaults call to its
// first trace event, the invariant audit on every run, and every
// Outcome.
type poolTrace struct {
	pool *harness.Pool

	mu   sync.Mutex // sets is appended to from the pool's workers
	sets []*firstEvent

	// Written by Progress and Observer, which the pool serializes and
	// joins before its batch returns.
	starts     map[string]time.Time
	runs       []poolRun
	firstStart time.Time
	outs       []*harness.Outcome
}

type poolRun struct {
	run        string // benchmark/scheme
	start, end time.Time
}

func newPoolTrace(workers int) *poolTrace {
	pt := &poolTrace{starts: map[string]time.Time{}}
	pt.pool = &harness.Pool{Workers: workers, Progress: pt.progress, Defaults: pt.defaults, Observer: pt.observe}
	return pt
}

func (pt *poolTrace) progress(pp harness.PoolProgress) {
	now := time.Now()
	run := pp.Benchmark + "/" + pp.Scheme
	if !pp.Started {
		pt.runs = append(pt.runs, poolRun{run, pt.starts[run], now})
		return
	}
	pt.starts[run] = now
	if pt.firstStart.IsZero() {
		pt.firstStart = now
	}
}

func (pt *poolTrace) defaults(s *harness.Spec) {
	fe := &firstEvent{run: s.Benchmark + "/" + s.Scheme, start: time.Now()}
	pt.mu.Lock()
	pt.sets = append(pt.sets, fe)
	pt.mu.Unlock()
	s.TraceSinks = append(s.TraceSinks, fe)
	s.CheckInvariants = true
}

func (pt *poolTrace) observe(o *harness.Outcome) { pt.outs = append(pt.outs, o) }

// record turns one traced batch, [t0, t1], into spans and the harness
// and inputs layers' numbers. Input generation is the threshold pick
// before the first run starts plus every run's set-up span; a run's
// queue wait is from the first start to its own. Progress events reach
// the collector a little after the worker acts, so a set-up span can
// begin just before its run span.
func (pt *poolTrace) record(rec *recorder, d *layerData, t0, t1 time.Time) {
	root := rec.interval(-1, "sweep", "", t0, t1)
	if !pt.firstStart.IsZero() {
		rec.interval(root, "inputs.build", "threshold pick", t0, pt.firstStart)
		d.inputsBuild += pt.firstStart.Sub(t0).Seconds()
		d.inputsBuilds++
	}
	for _, r := range pt.runs {
		id := rec.interval(root, "harness.run", r.run, r.start, r.end)
		d.runDurs = append(d.runDurs, r.end.Sub(r.start).Seconds())
		d.queueWait += r.start.Sub(pt.firstStart).Seconds()
		for _, fe := range pt.sets {
			if fe.run == r.run && !fe.end.IsZero() {
				rec.interval(id, "inputs.build", r.run, fe.start, fe.end)
				d.inputsBuild += fe.end.Sub(fe.start).Seconds()
				d.inputsBuilds++
			}
		}
	}
	d.busy = ratio(sum(d.runDurs), float64(pt.pool.Workers)*t1.Sub(t0).Seconds())
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// seriesSum adds every series of the name across its labels.
func seriesSum(s *metrics.Snapshot, name string) float64 {
	if s == nil {
		return 0
	}
	t := 0.0
	for _, m := range s.Metrics {
		if m.Name == name {
			t += m.Value
		}
	}
	return t
}

// histTotals adds the count and sum of every histogram series of the name.
func histTotals(s *metrics.Snapshot, name string) (count, total float64) {
	if s == nil {
		return 0, 0
	}
	for _, m := range s.Metrics {
		if m.Name == name {
			count += float64(m.Count)
			total += m.Sum
		}
	}
	return count, total
}

// setMetrics turns the traced pass into the per-layer metrics, in the
// layer order of README.md.
func (d *layerData) setMetrics(m *metricSet, rec *recorder, b *bench) {
	c := &d.counts
	var prof *profile.Report
	var seriesPerRun, traceBytes, traceEvents float64
	var cycles, ticked, occupancyW float64
	var children, groups, offers, peak float64
	snaps := make([]*metrics.Snapshot, 0, len(d.traced))
	for _, o := range d.traced {
		if o == nil {
			continue
		}
		prof = profile.MergeReports(prof, o.prof)
		snaps = append(snaps, o.snap)
		r := o.res
		cycles += float64(r.Cycles)
		occupancyW += r.Occupancy * float64(r.Cycles)
		children += float64(r.ChildKernels)
		groups += float64(r.DTBLGroups)
		offers += float64(r.LaunchOffers)
		traceBytes += float64(o.traceBytes)
		traceEvents += float64(o.traceEvents)
		if o.snap != nil {
			seriesPerRun = math.Max(seriesPerRun, float64(len(o.snap.Metrics)))
			peak = math.Max(peak, seriesSum(o.snap, "gmu_queued_kernels_peak"))
		}
	}
	all := func(name string) float64 {
		t := 0.0
		for _, s := range snaps {
			t += seriesSum(s, name)
		}
		return t
	}
	hist := func(name string) (n, s float64) {
		for _, sn := range snaps {
			a, b := histTotals(sn, name)
			n, s = n+a, s+b
		}
		return n, s
	}
	latCount, latSum := hist("gmu_queue_latency_cycles")
	transitCount, transitSum := hist("sim_launch_transit_cycles")
	comp := func(prefix string) (busy, idle float64, stall [5]float64) {
		if prof == nil {
			return
		}
		for _, cr := range prof.Components {
			if strings.HasPrefix(cr.Name, prefix) { // smx0, smx1, ...
				busy += float64(cr.Busy)
				idle += float64(cr.Idle)
				for i, v := range [5]uint64{cr.StallLatency, cr.StallSync, cr.StallDispatch, cr.StallBackpressure, cr.StallQueue} {
					stall[i] += float64(v)
				}
			}
		}
		return
	}
	stallSum := func(s [5]float64) float64 { return s[0] + s[1] + s[2] + s[3] + s[4] }

	cpu := d.untraced.cpu.Seconds()
	m.set("inputs.build_s", "s", d.inputsBuild)
	m.set("inputs.builds", "count", float64(d.inputsBuilds))
	m.set("inputs.share", "ratio", ratio(d.inputsBuild, cpu))

	nextS, _, _ := rec.sum("workloads.next")
	parentDef, _, _ := rec.sum("workloads.parentdef")
	m.set("workloads.next_s", "s", nextS)
	m.set("workloads.next_calls", "count", float64(c.next.calls))
	m.set("workloads.instr_alu", "count", float64(c.kinds[kernel.InstrALU]))
	m.set("workloads.instr_mem", "count", float64(c.kinds[kernel.InstrMem]))
	m.set("workloads.instr_launch", "count", float64(c.kinds[kernel.InstrLaunch]))
	m.set("workloads.instr_sync", "count", float64(c.kinds[kernel.InstrSync]))
	m.set("workloads.mem_lanes", "count", float64(c.memLanes))
	m.set("workloads.launch_candidates", "count", float64(c.candidates))
	m.set("workloads.parentdef_s", "s", parentDef)

	decideS, _, _ := rec.sum("policy.decide")
	hookS, _, _ := rec.sum("policy.hook")
	m.set("policy.decide_s", "s", decideS)
	m.set("policy.decide_calls", "count", float64(c.decide.calls))
	m.set("policy.hook_s", "s", hookS)
	m.set("policy.hook_calls", "count", float64(c.hook.calls))
	m.set("policy.accepted", "count", float64(c.accepted))
	m.set("policy.declined", "count", float64(c.declined))
	m.set("policy.deferred", "count", float64(c.deferred))
	m.set("policy.accept_ratio", "ratio", ratio(float64(c.accepted), float64(c.accepted+c.declined)))

	runS, selfS, _ := rec.sum("sim.run")
	b.notes = append(b.notes, fmt.Sprintf("sim.run_s - (sim.self_s + workloads.next_s + policy.decide_s + policy.hook_s) = %.3g s",
		runS-(selfS+nextS+decideS+hookS)))
	if prof != nil {
		ticked = float64(prof.Ticked)
	}
	m.set("sim.run_s", "s", runS)
	m.set("sim.self_s", "s", selfS)
	m.set("sim.cycles", "cycles", cycles)
	m.set("sim.ticked_cycles", "cycles", ticked)
	m.set("sim.skip_ratio", "ratio", ratio(cycles-ticked, cycles))
	m.set("sim.occupancy", "ratio", ratio(occupancyW, cycles))
	m.set("sim.child_kernels", "count", children)
	m.set("sim.dtbl_groups", "count", groups)
	m.set("sim.launch_offers", "count", offers)
	m.set("sim.cta_placement_stalls", "count", all("sim_cta_placement_stalls"))
	m.set("sim.launch_transit_mean_cycles", "cycles", ratio(transitSum, transitCount))

	txns := all("mem_transactions")
	l1h, l1m := all("mem_l1_hits"), all("mem_l1_misses")
	l2h, l2m := all("mem_l2_hits"), all("mem_l2_misses")
	dram := all("mem_dram_accesses")
	memBusy, _, memStall := comp("mem")
	dramBusy, _, dramStall := comp("dram")
	m.set("mem.warp_accesses", "count", all("mem_warp_accesses"))
	m.set("mem.transactions", "count", txns)
	m.set("mem.coalesce_ratio", "lanes/txn", ratio(float64(c.memLanes), txns))
	m.set("mem.l1_hit_rate", "ratio", ratio(l1h, l1h+l1m))
	m.set("mem.l2_hit_rate", "ratio", ratio(l2h, l2h+l2m))
	m.set("mem.dram_accesses", "count", dram)
	m.set("mem.dram_row_hit_rate", "ratio", ratio(all("mem_dram_row_hits"), dram))
	m.set("mem.busy_cycles", "cycles", memBusy+dramBusy)
	m.set("mem.stall_cycles", "cycles", stallSum(memStall)+stallSum(dramStall))
	rp := d.replay
	m.set("mem.replay_s", "s", rp.dur.Seconds())
	m.set("mem.replay_ns_per_txn", "ns", ratio(float64(rp.dur.Nanoseconds()), float64(rp.txns)))
	m.set("mem.replay_transactions", "count", float64(rp.txns))
	m.set("mem.replay_l1_hit_rate", "ratio", ratio(float64(rp.l1Hits), float64(rp.txns)))
	m.set("mem.replay_l2_hit_rate", "ratio", ratio(rp.l2Hits, float64(rp.l2Acc)))

	gmuBusy, _, gmuStall := comp("gmu")
	hwqBusy, _, hwqStall := comp("hwq")
	m.set("gmu.enqueued_kernels", "count", all("gmu_enqueued_kernels"))
	m.set("gmu.dispatched_ctas", "count", all("gmu_dispatched_ctas"))
	m.set("gmu.yields", "count", all("gmu_kernel_yields"))
	m.set("gmu.queue_latency_mean_cycles", "cycles", ratio(latSum, latCount))
	m.set("gmu.queued_kernels_peak", "count", peak)
	m.set("gmu.busy_cycles", "cycles", gmuBusy+hwqBusy)
	m.set("gmu.stall_cycles", "cycles", stallSum(gmuStall)+stallSum(hwqStall))

	smxBusy, smxIdle, smxStall := comp("smx")
	m.set("smx.ctas_placed", "count", all("smx_ctas_placed"))
	m.set("smx.ctas_released", "count", all("smx_ctas_released"))
	m.set("smx.busy_cycles", "cycles", smxBusy)
	m.set("smx.idle_cycles", "cycles", smxIdle)
	for i, k := range []string{"latency", "sync", "dispatch", "backpressure", "queue"} {
		m.set("smx.stall_"+k+"_cycles", "cycles", smxStall[i])
	}

	p50, max := median(d.runDurs), 0.0
	for _, x := range d.runDurs {
		max = math.Max(max, x)
	}
	m.set("harness.runs", "count", float64(len(d.runDurs)))
	m.set("harness.run_s_p50", "s", p50)
	m.set("harness.run_s_max", "s", max)
	m.set("harness.pool_workers", "count", float64(d.workers))
	m.set("harness.pool_busy_fraction", "ratio", d.busy)
	m.set("harness.queue_wait_s", "s", d.queueWait)

	// obs.* describe the observability the workload itself turns on
	// (observed-dp's); the traced pass's own registry is not counted.
	if !b.obs {
		seriesPerRun, traceBytes, traceEvents = 0, 0, 0
	}
	m.set("obs.trace_bytes", "bytes", traceBytes)
	m.set("obs.trace_events", "count", traceEvents)
	m.set("obs.metric_series", "count", seriesPerRun)
	m.set("obs.tracing_overhead_ratio", "ratio", ratio(d.tracedBatch.wall.Seconds(), d.untraced.wall.Seconds()))

	m.setGC(d.gc0, d.gc1)

	m.set("model.fig5_best_speedup", "x", d.fig5Best)
	m.set("model.fig5_max_rel_err", "ratio", d.fig5Err)
}
