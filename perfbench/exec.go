package main

import (
	"fmt"
	"reflect"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

// runOpts selects what a direct run turns on besides the simulation.
type runOpts struct {
	// obs is the program's own observability, as observed-dp times it:
	// a metrics registry, the cycle profiler, and a JSONL trace sink
	// writing to a counting discard writer.
	obs bool
	// layers turns on the registry and profiler for per-layer counts
	// (the traced pass) without the JSONL sink.
	layers bool
	check  bool    // sim.Options.CheckInvariants
	tr     *tracer // nil runs the program unwrapped
	// rec, when set, records a span per public call, under the span
	// parent (-1 for none).
	rec    *recorder
	parent int
}

// runOut is one direct run's result and the observability it produced.
type runOut struct {
	res         *sim.Result
	snap        *metrics.Snapshot
	prof        *profile.Report
	traceBytes  uint64
	traceEvents uint64
	counts      counts // what the tracer saw (zero when untraced)
	wall, cpu   time.Duration
}

// execRun builds r's input and app and simulates it, the way spawnsim
// runs one benchmark under one scheme. Panics come back as errors. With a recorder it records a span
// around each public call; with a tracer it wraps the programs and the
// policy.
func execRun(r run, o runOpts) (out *runOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	rec, label := o.rec, r.label()
	root := rec.begin(o.parent, "run", label)
	defer rec.end(root)

	sp := rec.begin(root, "inputs.build", label)
	app := r.make()
	err = app.Normalize()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(root, "workloads.parentdef", label)
	def, err := workloads.ParentDef(app)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	cfg := config.K20m()
	pol, err := policyFor(r.scheme, app, cfg)
	if err != nil {
		return nil, err
	}
	tr := o.tr
	if tr != nil {
		tr.run = counts{}
		def = tr.wrapDef(def)
		pol = &tracedPolicy{inner: pol, t: tr}
	}
	opts := sim.Options{Config: cfg, Policy: pol, CheckInvariants: o.check}
	var reg *metrics.Registry
	var prof *profile.Profile
	if o.obs || o.layers {
		reg = metrics.NewRegistry()
		prof = profile.New(cfg.NumSMX, profile.Options{})
		opts.Metrics, opts.Profile = reg, prof
	}
	var cw countingWriter
	var jl *trace.JSONL
	if o.obs {
		jl = trace.NewJSONL(&cw)
		opts.Sinks = []trace.Sink{jl}
	}
	sp = rec.begin(root, "sim.new", label)
	g, err := sim.NewChecked(opts)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.gpu = g
	}
	g.LaunchHost(def)
	sp = rec.begin(root, "sim.run", label)
	res, err := g.Run()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	// Result.ChildCTAExec points into the GPU; a private copy of the
	// histogram lets the GPU be collected while the Result is kept.
	if res.ChildCTAExec != nil {
		h := *res.ChildCTAExec
		res.ChildCTAExec = &h
	}
	out = &runOut{res: res}
	if tr != nil {
		out.counts = tr.run
		if tr.timed {
			rec.total(sp, "workloads.next", label, tr.run.next.d, tr.run.next.calls)
			rec.total(sp, "policy.decide", label, tr.run.decide.d, tr.run.decide.calls)
			rec.total(sp, "policy.hook", label, tr.run.hook.d, tr.run.hook.calls)
		}
	}
	if jl != nil {
		if err := jl.Close(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		out.traceBytes, out.traceEvents = cw.bytes, cw.lines
	}
	if reg != nil {
		snap := reg.Snapshot(uint64(res.Cycles))
		out.snap = &snap
		out.prof = prof.Report()
	}
	return out, nil
}

// sameResult reports whether two runs produced equal Results field for
// field. SiteDecisions is filled only when a metrics registry is
// attached, so it is compared only when both runs have it.
func sameResult(a, b *sim.Result) bool {
	x, y := *a, *b
	if x.SiteDecisions == nil || y.SiteDecisions == nil {
		x.SiteDecisions, y.SiteDecisions = nil, nil
	}
	return reflect.DeepEqual(x, y)
}
