package main

import (
	"bytes"
	"time"

	"spawnsim/internal/config"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/sim/mem"
)

// accum folds every call of one kind into a total.
type accum struct {
	d     time.Duration
	calls uint64
}

// counts are what the wrappers saw during one run.
type counts struct {
	next, decide, hook           accum
	kinds                        [4]uint64 // by kernel.InstrKind
	memLanes, candidates         uint64
	accepted, declined, deferred uint64
}

func (c *counts) add(o *counts) {
	c.next.d += o.next.d
	c.next.calls += o.next.calls
	c.decide.d += o.decide.d
	c.decide.calls += o.decide.calls
	c.hook.d += o.hook.d
	c.hook.calls += o.hook.calls
	for i := range c.kinds {
		c.kinds[i] += o.kinds[i]
	}
	c.memLanes += o.memLanes
	c.candidates += o.candidates
	c.accepted += o.accepted
	c.declined += o.declined
	c.deferred += o.deferred
}

func (c *counts) instructions() uint64 {
	var n uint64
	for _, k := range c.kinds {
		n += k
	}
	return n
}

// tracer wraps a run's kernel programs and launch policy. It always
// counts; when timed it also times every Program.Next, Policy.Decide and
// On* hook call, and when mem is set it captures the warp memory-access
// stream for replay. Timing and capture are separate passes, so the
// capture's copying never lands in a timed span.
type tracer struct {
	timed bool
	mem   *memTrace
	gpu   *sim.GPU
	run   counts
}

func (t *tracer) start() time.Time {
	if t.timed {
		return time.Now()
	}
	return time.Time{}
}

func (t *tracer) stop(a *accum, t0 time.Time) {
	if t.timed {
		a.d += time.Since(t0)
	}
	a.calls++
}

// wrapDef returns a copy of def whose programs report to t. Launch
// candidates that a wrapped program emits are re-wrapped, so child and
// grandchild programs report too.
func (t *tracer) wrapDef(def *kernel.Def) *kernel.Def {
	w := *def
	inner := def.NewProgram
	w.NewProgram = func(cta, warp int) kernel.Program {
		return &tracedProgram{inner: inner(cta, warp), t: t, cta: cta}
	}
	return &w
}

type tracedProgram struct {
	inner kernel.Program
	t     *tracer
	cta   int
}

// Next implements kernel.Program.
func (p *tracedProgram) Next(x *kernel.Exec, in *kernel.Instr) bool {
	t := p.t
	t0 := t.start()
	ok := p.inner.Next(x, in)
	t.stop(&t.run.next, t0)
	if !ok {
		return false
	}
	switch in.Kind {
	case kernel.InstrALU, kernel.InstrSync:
	case kernel.InstrMem:
		t.run.memLanes += uint64(len(in.Addrs))
		if t.mem != nil {
			t.mem.add(t.gpu.Clock(), p.cta, in.Addrs)
		}
	case kernel.InstrLaunch:
		t.run.candidates += uint64(len(in.Candidates))
		for i := range in.Candidates {
			in.Candidates[i].Def = t.wrapDef(in.Candidates[i].Def)
		}
	default:
		return true // the engine rejects unknown kinds itself
	}
	t.run.kinds[in.Kind]++
	return true
}

// tracedPolicy times and counts a policy's decisions and hooks.
type tracedPolicy struct {
	inner kernel.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(site *kernel.LaunchSite) kernel.Decision {
	t := p.t
	t0 := t.start()
	d := p.inner.Decide(site)
	t.stop(&t.run.decide, t0)
	switch d.Action {
	case kernel.Serialize:
		t.run.declined++
	case kernel.LaunchKernel, kernel.LaunchCTAs:
		t.run.accepted++
	case kernel.Defer:
		t.run.deferred++
	}
	return d
}

func (p *tracedPolicy) OnChildQueued(now kernel.Cycle, ctas int) {
	t0 := p.t.start()
	p.inner.OnChildQueued(now, ctas)
	p.t.stop(&p.t.run.hook, t0)
}

func (p *tracedPolicy) OnChildCTAStart(now kernel.Cycle) {
	t0 := p.t.start()
	p.inner.OnChildCTAStart(now)
	p.t.stop(&p.t.run.hook, t0)
}

func (p *tracedPolicy) OnChildCTAFinish(now, start kernel.Cycle, warps int) {
	t0 := p.t.start()
	p.inner.OnChildCTAFinish(now, start, warps)
	p.t.stop(&p.t.run.hook, t0)
}

func (p *tracedPolicy) OnChildWarpFinish(now, start kernel.Cycle) {
	t0 := p.t.start()
	p.inner.OnChildWarpFinish(now, start)
	p.t.stop(&p.t.run.hook, t0)
}

// memTrace is one run's warp memory-access stream as the Next wrapper
// saw it: the cycle, the issuing CTA's index and the lane addresses.
type memTrace struct {
	clock []kernel.Cycle
	cta   []int32
	end   []int // addrs[end[i-1]:end[i]] are access i's lanes
	addrs []uint64
}

func (m *memTrace) add(clock kernel.Cycle, cta int, addrs []uint64) {
	m.clock = append(m.clock, clock)
	m.cta = append(m.cta, int32(cta))
	m.addrs = append(m.addrs, addrs...)
	m.end = append(m.end, len(m.addrs))
}

// replay feeds the stream into a fresh memory hierarchy, issuing each
// access from SMX (CTA index mod NumSMX), and returns the hierarchy and
// the host time Access took. Coalescing does not depend on the SMX, so
// the replay's Transactions and WarpAccesses must equal the run's; its
// hit rates differ, because CTAs ran on other SMXs in the run.
func (m *memTrace) replay(cfg config.GPU) (*mem.Hierarchy, time.Duration) {
	h := mem.NewHierarchy(cfg)
	t0 := time.Now()
	lo := 0
	for i, hi := range m.end {
		h.Access(m.clock[i], int(m.cta[i])%cfg.NumSMX, m.addrs[lo:hi])
		lo = hi
	}
	return h, time.Since(t0)
}

// countingWriter discards what it is given, counting bytes and lines
// (one JSONL trace event per line).
type countingWriter struct{ bytes, lines uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += uint64(len(p))
	w.lines += uint64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}
