package main

import (
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
)

// script returns a program that emits the given kinds in order (a sync
// with children outstanding parks the warp for good): memory
// instructions touch four lanes, launches offer one child of def.
func script(child *kernel.Def, kinds ...kernel.InstrKind) func(cta, warp int) kernel.Program {
	return func(cta, warp int) kernel.Program {
		i := 0
		return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool {
			if i == len(kinds) {
				return false
			}
			in.Kind = kinds[i]
			i++
			switch in.Kind {
			case kernel.InstrALU:
				in.Lat = 1
			case kernel.InstrMem:
				in.Addrs = append(in.Addrs, 0, 4, 128, 4096)
			case kernel.InstrLaunch:
				in.Candidates = append(in.Candidates, kernel.LaunchCandidate{Lane: 0, Workload: 1, Def: child})
			case kernel.InstrSync:
			}
			return true
		})
	}
}

func tinyDefs() (parent, child *kernel.Def) {
	child = &kernel.Def{Name: "child", GridCTAs: 1, CTAThreads: 32, NewProgram: script(nil, kernel.InstrALU, kernel.InstrMem)}
	parent = &kernel.Def{Name: "parent", GridCTAs: 1, CTAThreads: 32,
		NewProgram: script(child, kernel.InstrALU, kernel.InstrMem, kernel.InstrLaunch, kernel.InstrSync)}
	return parent, child
}

func TestNextWrapperCountsKinds(t *testing.T) {
	parent, child := tinyDefs()
	tr := &tracer{}
	p := tr.wrapDef(parent).NewProgram(0, 0)
	var x kernel.Exec
	var in kernel.Instr
	var launched *kernel.Def
	for {
		in.Reset()
		if !p.Next(&x, &in) {
			break
		}
		if in.Kind == kernel.InstrLaunch {
			launched = in.Candidates[0].Def
		}
	}
	c := tr.run
	if want := [4]uint64{1, 1, 1, 1}; c.kinds != want {
		t.Errorf("kinds = %v, want %v (alu, mem, launch, sync)", c.kinds, want)
	}
	if c.next.calls != 5 || c.memLanes != 4 || c.candidates != 1 || c.instructions() != 4 {
		t.Errorf("next calls %d, mem lanes %d, candidates %d, instructions %d; want 5, 4, 1, 4",
			c.next.calls, c.memLanes, c.candidates, c.instructions())
	}
	if c.next.d != 0 {
		t.Errorf("untimed tracer recorded %v of Next time", c.next.d)
	}
	if launched == nil || launched == child || launched.Name != child.Name {
		t.Fatalf("launch candidate def %p not re-wrapped (child %p)", launched, child)
	}
	cp := launched.NewProgram(0, 0)
	if _, ok := cp.(*tracedProgram); !ok {
		t.Fatalf("child program is %T, want *tracedProgram", cp)
	}
	in.Reset()
	cp.Next(&x, &in)
	if tr.run.kinds[kernel.InstrALU] != 2 {
		t.Errorf("child ALU not counted: kinds = %v", tr.run.kinds)
	}
}

// launchAll accepts every candidate.
type launchAll struct{ kernel.BasePolicy }

func (launchAll) Name() string { return "launch-all" }

func (launchAll) Decide(*kernel.LaunchSite) kernel.Decision {
	return kernel.Decision{Action: kernel.LaunchKernel, APICycles: 1}
}

// TestWrappersLeaveRunUnchanged runs the tiny kernel through the
// simulator bare and wrapped: the Results must be equal, and the counts
// must include the child program the engine launched.
func TestWrappersLeaveRunUnchanged(t *testing.T) {
	run := func(tr *tracer) *sim.Result {
		parent, _ := tinyDefs()
		var pol kernel.Policy = launchAll{}
		if tr != nil {
			parent = tr.wrapDef(parent)
			pol = &tracedPolicy{inner: pol, t: tr}
		}
		g, err := sim.NewChecked(sim.Options{Config: config.K20m(), Policy: pol, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			tr.gpu = g
		}
		g.LaunchHost(parent)
		res, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	tr := &tracer{timed: true, mem: &memTrace{}}
	wrapped := run(tr)
	if !sameResult(bare, wrapped) {
		t.Fatalf("wrapped Result differs:\n bare    %+v\n wrapped %+v", bare, wrapped)
	}
	c := tr.run
	if want := [4]uint64{2, 2, 1, 1}; c.kinds != want {
		t.Errorf("kinds = %v, want %v: the child's program was not counted", c.kinds, want)
	}
	if c.accepted != 1 || c.decide.calls != 1 || bare.ChildKernels != 1 {
		t.Errorf("accepted %d, decide calls %d, child kernels %d; want 1, 1, 1", c.accepted, c.decide.calls, bare.ChildKernels)
	}
	h, _ := tr.mem.replay(config.K20m())
	if h.WarpAccesses != 2 || h.Transactions != bare.Transactions {
		t.Errorf("replay: %d warp accesses, %d transactions; want 2, %d", h.WarpAccesses, h.Transactions, bare.Transactions)
	}
}
