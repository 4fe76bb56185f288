// Package faults implements deterministic, seed-driven chaos injection
// for the simulator. A Plan describes the perturbation rates; an
// Injector answers point queries from the timing model's hook points:
//
//   - extra launch-command transit latency (per launched kernel),
//   - transient HWQ back-pressure windows (the GMU refuses to dispatch
//     CTAs for the rest of a fault epoch),
//   - temporary SMX offline intervals (the CTA scheduler skips the SMX),
//   - DRAM latency spikes (every DRAM access in the epoch pays extra).
//
// Every decision is a pure hash of (seed, fault kind, epoch or kernel
// id, unit), so the injected fault schedule is independent of query
// order: two runs with the same plan perturb the identical cycles, which
// keeps chaos runs exactly reproducible (identical seed and plan imply
// identical Result.Cycles). Unfaulted simulations carry a nil *Injector
// and pay a single pointer check per hook point.
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// DefaultEpochCycles is the fault-window granularity when the plan does
// not set one.
const DefaultEpochCycles = 8192

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// LaunchDelay adds transit latency to one kernel launch command.
	LaunchDelay Kind = iota
	// HWQStall suspends GMU CTA dispatch for one epoch.
	HWQStall
	// SMXOffline derates one SMX (no CTA placement) for one epoch.
	SMXOffline
	// DRAMSpike adds latency to every DRAM access in one epoch.
	DRAMSpike

	numKinds
)

func (k Kind) String() string {
	switch k {
	case LaunchDelay:
		return "launch-delay"
	case HWQStall:
		return "hwq-stall"
	case SMXOffline:
		return "smx-offline"
	case DRAMSpike:
		return "dram-spike"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Plan is a declarative fault-injection schedule. The zero value injects
// nothing; Seed selects one concrete schedule out of the family the
// rates describe.
type Plan struct {
	Seed uint64
	// EpochCycles is the window granularity for windowed faults
	// (HWQStall, SMXOffline, DRAMSpike). 0 = DefaultEpochCycles.
	EpochCycles uint64

	// LaunchDelayProb is the per-launch probability of extra transit
	// latency, uniform in [1, LaunchDelayMax] cycles.
	LaunchDelayProb float64
	LaunchDelayMax  uint64

	// HWQStallProb is the per-epoch probability that the GMU dispatches
	// nothing (pending-pool back-pressure).
	HWQStallProb float64

	// SMXOfflineProb is the per-(epoch, SMX) probability that an SMX
	// accepts no new CTAs (resident CTAs keep executing).
	SMXOfflineProb float64

	// DRAMSpikeProb is the per-epoch probability that DRAM accesses pay
	// DRAMSpikeExtra additional cycles.
	DRAMSpikeProb  float64
	DRAMSpikeExtra uint64
}

// Mild returns the reference "mild perturbation" plan used by the chaos
// suite: enough pressure to exercise every hook without starving the
// machine.
func Mild(seed uint64) Plan {
	return Plan{
		Seed:            seed,
		EpochCycles:     DefaultEpochCycles,
		LaunchDelayProb: 0.10,
		LaunchDelayMax:  2000,
		HWQStallProb:    0.02,
		SMXOfflineProb:  0.01,
		DRAMSpikeProb:   0.05,
		DRAMSpikeExtra:  200,
	}
}

// Prob returns the plan's injection probability for one fault kind.
// The switch is deliberately default-free: adding a Kind without wiring
// its rate here is caught by the spawnvet exhaustive analyzer, so a new
// fault class cannot slip past Validate/Zero unchecked.
func (p Plan) Prob(k Kind) float64 {
	switch k {
	case LaunchDelay:
		return p.LaunchDelayProb
	case HWQStall:
		return p.HWQStallProb
	case SMXOffline:
		return p.SMXOfflineProb
	case DRAMSpike:
		return p.DRAMSpikeProb
	}
	panic(fmt.Sprintf("faults: Prob of unknown kind %d", uint8(k)))
}

// Zero reports whether the plan injects nothing.
func (p Plan) Zero() bool {
	for k := Kind(0); k < numKinds; k++ {
		if p.Prob(k) != 0 {
			return false
		}
	}
	return true
}

// Validate reports the first inconsistency. Window probabilities must
// stay below 1 so every fault class leaves clear epochs and the machine
// keeps making forward progress; NaN is rejected with the rest, since
// no comparison holds for it and a plan holding one cannot be encoded.
func (p Plan) Validate() error {
	for k := Kind(0); k < numKinds; k++ {
		if v := p.Prob(k); !(v >= 0 && v < 1) {
			return fmt.Errorf("faults: %s probability %v outside [0,1)", k, v)
		}
	}
	if p.LaunchDelayProb > 0 && p.LaunchDelayMax == 0 {
		return fmt.Errorf("faults: launch-delay probability set but max delay is 0")
	}
	if p.DRAMSpikeProb > 0 && p.DRAMSpikeExtra == 0 {
		return fmt.Errorf("faults: dram-spike probability set but extra latency is 0")
	}
	return nil
}

// String renders the plan in the format Parse accepts.
func (p Plan) String() string {
	var parts []string
	if p.LaunchDelayProb > 0 {
		parts = append(parts, fmt.Sprintf("transit=%g:%d", p.LaunchDelayProb, p.LaunchDelayMax))
	}
	if p.HWQStallProb > 0 {
		parts = append(parts, fmt.Sprintf("hwq=%g", p.HWQStallProb))
	}
	if p.SMXOfflineProb > 0 {
		parts = append(parts, fmt.Sprintf("smx=%g", p.SMXOfflineProb))
	}
	if p.DRAMSpikeProb > 0 {
		parts = append(parts, fmt.Sprintf("dram=%g:%d", p.DRAMSpikeProb, p.DRAMSpikeExtra))
	}
	if p.EpochCycles != 0 && p.EpochCycles != DefaultEpochCycles {
		parts = append(parts, fmt.Sprintf("epoch=%d", p.EpochCycles))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Parse decodes a plan specification. The grammar is a comma-separated
// list of clauses:
//
//	transit=P:MAX   launch transit delay, probability P, up to MAX cycles
//	hwq=P           HWQ dispatch stall epochs with probability P
//	smx=P           per-SMX offline epochs with probability P
//	dram=P:EXTRA    DRAM spike epochs: probability P, EXTRA cycles/access
//	epoch=N         fault window granularity in cycles
//
// The literal "mild" expands to the Mild reference plan and "none" to an
// empty plan. The seed is supplied separately (the -chaos-seed flag).
func Parse(spec string, seed uint64) (Plan, error) {
	switch strings.TrimSpace(spec) {
	case "", "mild":
		return Mild(seed), nil
	case "none":
		return Plan{Seed: seed}, nil
	}
	p := Plan{Seed: seed, EpochCycles: DefaultEpochCycles}
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: bad clause %q (want key=value)", clause)
		}
		prob, arg, hasArg := strings.Cut(val, ":")
		parseProb := func() (float64, error) {
			f, err := strconv.ParseFloat(prob, 64)
			if err != nil {
				return 0, fmt.Errorf("faults: %s: bad probability %q: %w", key, prob, err)
			}
			return f, nil
		}
		parseArg := func(name string) (uint64, error) {
			if !hasArg {
				return 0, fmt.Errorf("faults: %s needs %s (%s=P:%s)", key, name, key, strings.ToUpper(name))
			}
			n, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("faults: %s: bad %s %q: %w", key, name, arg, err)
			}
			return n, nil
		}
		var err error
		switch key {
		case "transit":
			if p.LaunchDelayProb, err = parseProb(); err != nil {
				return Plan{}, err
			}
			if p.LaunchDelayMax, err = parseArg("max delay"); err != nil {
				return Plan{}, err
			}
		case "hwq":
			if p.HWQStallProb, err = parseProb(); err != nil {
				return Plan{}, err
			}
		case "smx":
			if p.SMXOfflineProb, err = parseProb(); err != nil {
				return Plan{}, err
			}
		case "dram":
			if p.DRAMSpikeProb, err = parseProb(); err != nil {
				return Plan{}, err
			}
			if p.DRAMSpikeExtra, err = parseArg("extra latency"); err != nil {
				return Plan{}, err
			}
		case "epoch":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return Plan{}, fmt.Errorf("faults: bad epoch %q", val)
			}
			p.EpochCycles = n
		default:
			return Plan{}, fmt.Errorf("faults: unknown clause %q (want transit|hwq|smx|dram|epoch)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Event is one injected fault occurrence, reported through
// Injector.OnEvent (at most once per fault window per kind/unit).
type Event struct {
	Kind  Kind
	Cycle uint64
	// Unit is the affected component (SMX id for SMXOffline, -1 n/a).
	Unit int
	// Magnitude is the injected latency in cycles (delay and spike
	// kinds; 0 for pure stall windows).
	Magnitude uint64
}

// Injector answers fault queries for one simulation run. Not safe for
// concurrent use (the simulator is single-threaded). The zero value is
// not useful; build one with New. A nil *Injector is inert: every
// query method no-ops on nil receivers, so unfaulted runs need no
// branches beyond the nil check.
type Injector struct {
	plan  Plan
	epoch uint64

	// OnEvent, when non-nil, observes injected faults (the simulator
	// forwards them into the trace stream). Set before the run starts.
	OnEvent func(Event)

	counts [numKinds]uint64
	// lastReported deduplicates window-fault events to one per epoch
	// (queries hit the same epoch thousands of times).
	lastReported [numKinds]uint64
}

// New builds an injector from a validated plan.
func New(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.EpochCycles == 0 {
		p.EpochCycles = DefaultEpochCycles
	}
	in := &Injector{plan: p}
	for i := range in.lastReported {
		in.lastReported[i] = ^uint64(0)
	}
	return in, nil
}

// Plan returns the plan the injector was built from.
func (in *Injector) Plan() Plan { return in.plan }

// Count reports how many faults of one kind were injected so far.
func (in *Injector) Count(k Kind) uint64 {
	if in == nil {
		return 0
	}
	return in.counts[k]
}

// TotalInjected sums the injected-fault counts across kinds.
func (in *Injector) TotalInjected() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for _, c := range in.counts {
		t += c
	}
	return t
}

// mix is the splitmix64 finalizer: a strong 64-bit bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll hashes (seed, kind, a, b) into a uniform 64-bit value.
func (in *Injector) roll(k Kind, a, b uint64) uint64 {
	x := mix(in.plan.Seed ^ (uint64(k)+1)*0x9e3779b97f4a7c15)
	x = mix(x ^ a*0xbf58476d1ce4e5b9)
	return mix(x ^ b*0x94d049bb133111eb)
}

// below maps a hash to [0,1) and compares against a probability.
func below(h uint64, p float64) bool {
	return float64(h>>11)/(1<<53) < p
}

// report counts one injection and forwards it to OnEvent.
func (in *Injector) report(k Kind, cycle uint64, unit int, magnitude uint64) {
	in.counts[k]++
	if in.OnEvent != nil {
		in.OnEvent(Event{Kind: k, Cycle: cycle, Unit: unit, Magnitude: magnitude})
	}
}

// reportEpochOnce reports a window fault at most once per epoch.
func (in *Injector) reportEpochOnce(k Kind, now, epoch uint64, unit int, magnitude uint64) {
	if in.lastReported[k] == epoch {
		return
	}
	in.lastReported[k] = epoch
	in.report(k, now, unit, magnitude)
}

// LaunchDelay returns extra transit cycles for the launch of kernel id,
// decided at `now` (hook: sim launch flight).
func (in *Injector) LaunchDelay(now uint64, kernelID int) uint64 {
	if in == nil || in.plan.LaunchDelayProb == 0 {
		return 0
	}
	h := in.roll(LaunchDelay, uint64(kernelID), 0)
	if !below(h, in.plan.LaunchDelayProb) {
		return 0
	}
	d := 1 + in.roll(LaunchDelay, uint64(kernelID), 1)%in.plan.LaunchDelayMax
	in.report(LaunchDelay, now, -1, d)
	return d
}

// epochOf maps a cycle to its fault window index.
func (in *Injector) epochOf(now uint64) uint64 { return now / in.plan.EpochCycles }

// DispatchStalled reports whether the GMU refuses CTA dispatch at `now`
// (hook: gmu.Dispatch back-pressure).
func (in *Injector) DispatchStalled(now uint64) bool {
	if in == nil || in.plan.HWQStallProb == 0 {
		return false
	}
	e := in.epochOf(now)
	if !below(in.roll(HWQStall, e, 0), in.plan.HWQStallProb) {
		return false
	}
	in.reportEpochOnce(HWQStall, now, e, -1, 0)
	return true
}

// SMXOffline reports whether SMX `smx` accepts no new CTAs at `now`
// (hook: sim CTA placement).
func (in *Injector) SMXOffline(now uint64, smx int) bool {
	if in == nil || in.plan.SMXOfflineProb == 0 {
		return false
	}
	e := in.epochOf(now)
	if !below(in.roll(SMXOffline, e, uint64(smx)), in.plan.SMXOfflineProb) {
		return false
	}
	// One event per (epoch, SMX) would need per-SMX dedup state; one per
	// epoch is enough signal for the trace.
	in.reportEpochOnce(SMXOffline, now, e, smx, 0)
	return true
}

// DRAMPenalty returns extra cycles for a DRAM access serviced at `now`
// (hook: mem.Hierarchy DRAM path).
func (in *Injector) DRAMPenalty(now uint64) uint64 {
	if in == nil || in.plan.DRAMSpikeProb == 0 {
		return 0
	}
	e := in.epochOf(now)
	if !below(in.roll(DRAMSpike, e, 0), in.plan.DRAMSpikeProb) {
		return 0
	}
	in.reportEpochOnce(DRAMSpike, now, e, -1, in.plan.DRAMSpikeExtra)
	return in.plan.DRAMSpikeExtra
}

// NextChange returns the first cycle after `now` at which a windowed
// fault decision can change (the next epoch boundary). The simulator
// folds this into its quiescent fast-forward so a stalled GMU or
// offline SMX wakes the loop when the window ends instead of being
// misdiagnosed as a deadlock.
func (in *Injector) NextChange(now uint64) uint64 {
	if in == nil {
		return ^uint64(0)
	}
	return (in.epochOf(now) + 1) * in.plan.EpochCycles
}

// Active reports whether any windowed fault class is enabled (the
// simulator skips the fast-forward clamp otherwise).
func (in *Injector) Active() bool {
	return in != nil && (in.plan.HWQStallProb > 0 || in.plan.SMXOfflineProb > 0 || in.plan.DRAMSpikeProb > 0)
}
