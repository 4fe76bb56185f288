package faults

import (
	"encoding/json"
	"math"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.LaunchDelay(10, 1) != 0 || in.DispatchStalled(10) || in.SMXOffline(10, 0) || in.DRAMPenalty(10) != 0 {
		t.Error("nil injector injected something")
	}
	if in.Active() || in.TotalInjected() != 0 || in.Count(HWQStall) != 0 {
		t.Error("nil injector reports activity")
	}
}

func TestDeterministicAndOrderIndependent(t *testing.T) {
	p := Mild(42)
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(p)
	// Query b in a different order than a: answers must match anyway.
	type q struct {
		cycle uint64
		id    int
	}
	qs := []q{{100, 1}, {9000, 2}, {123456, 3}, {9000, 2}, {7, 9}}
	answer := func(in *Injector, x q) [4]uint64 {
		return [4]uint64{
			in.LaunchDelay(x.cycle, x.id),
			boolTo(in.DispatchStalled(x.cycle)),
			boolTo(in.SMXOffline(x.cycle, x.id)),
			in.DRAMPenalty(x.cycle),
		}
	}
	da := map[int][4]uint64{}
	for i, x := range qs {
		da[i] = answer(a, x)
	}
	// Query b in reverse order: answers must match anyway.
	for i := len(qs) - 1; i >= 0; i-- {
		if got := answer(b, qs[i]); got != da[i] {
			t.Fatalf("query %d: %v vs %v", i, got, da[i])
		}
	}
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestSeedChangesSchedule(t *testing.T) {
	a, _ := New(Mild(1))
	b, _ := New(Mild(2))
	same := true
	for e := uint64(0); e < 200; e++ {
		c := e * DefaultEpochCycles
		if a.DispatchStalled(c) != b.DispatchStalled(c) || a.DRAMPenalty(c) != b.DRAMPenalty(c) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical window schedules")
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	in, _ := New(Plan{Seed: 7, HWQStallProb: 0.25, EpochCycles: 1024})
	n, hits := 20000, 0
	for e := 0; e < n; e++ {
		if in.DispatchStalled(uint64(e) * 1024) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("stall rate %.3f, want ~0.25", got)
	}
}

func TestLaunchDelayBounded(t *testing.T) {
	in, _ := New(Plan{Seed: 3, LaunchDelayProb: 0.9, LaunchDelayMax: 100})
	hit := false
	for id := 0; id < 1000; id++ {
		d := in.LaunchDelay(uint64(id), id)
		if d > 100 {
			t.Fatalf("delay %d exceeds max 100", d)
		}
		if d > 0 {
			hit = true
		}
	}
	if !hit {
		t.Error("p=0.9 never delayed a launch")
	}
	if in.Count(LaunchDelay) == 0 {
		t.Error("no delays counted")
	}
}

func TestEventsReportedOncePerEpoch(t *testing.T) {
	in, _ := New(Plan{Seed: 11, DRAMSpikeProb: 0.5, DRAMSpikeExtra: 50, EpochCycles: 100})
	var events []Event
	in.OnEvent = func(e Event) { events = append(events, e) }
	// Find a spiking epoch, then query it many times.
	var spike uint64
	for e := uint64(0); ; e++ {
		if in.DRAMPenalty(e*100) > 0 {
			spike = e
			break
		}
	}
	events = events[:0]
	for i := 0; i < 50; i++ {
		in.DRAMPenalty(spike*100 + uint64(i))
	}
	if len(events) != 0 {
		t.Errorf("re-querying a reported epoch emitted %d extra events", len(events))
	}
}

func TestNextChange(t *testing.T) {
	in, _ := New(Plan{Seed: 1, HWQStallProb: 0.1, EpochCycles: 1000})
	if got := in.NextChange(1500); got != 2000 {
		t.Errorf("NextChange(1500) = %d, want 2000", got)
	}
	if got := in.NextChange(2000); got != 3000 {
		t.Errorf("NextChange(2000) = %d, want 3000", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("transit=0.1:2000,hwq=0.02,smx=0.01,dram=0.05:200,epoch=4096", 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.LaunchDelayProb != 0.1 || p.LaunchDelayMax != 2000 ||
		p.HWQStallProb != 0.02 || p.SMXOfflineProb != 0.01 ||
		p.DRAMSpikeProb != 0.05 || p.DRAMSpikeExtra != 200 || p.EpochCycles != 4096 {
		t.Errorf("parsed plan = %+v", p)
	}
	p2, err := Parse(p.String()+",epoch=4096", 9)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Errorf("round trip: %+v vs %+v", p2, p)
	}
}

func TestParsePresets(t *testing.T) {
	m, err := Parse("mild", 5)
	if err != nil || m != Mild(5) {
		t.Errorf("mild preset: %+v, %v", m, err)
	}
	n, err := Parse("none", 5)
	if err != nil || !n.Zero() {
		t.Errorf("none preset: %+v, %v", n, err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"bogus=1", "transit=0.1", "transit=x:10", "hwq=1.5", "dram=0.1",
		"epoch=0", "hwq", "smx=1.0",
		// Non-finite probabilities, one per clause.
		"transit=nan:5", "hwq=NaN", "smx=NaN", "dram=NaN:3", "hwq=Inf", "smx=-Inf",
	} {
		if _, err := Parse(spec, 0); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestValidateRejectsSaturatingWindows(t *testing.T) {
	if err := (Plan{HWQStallProb: 1.0}).Validate(); err == nil {
		t.Error("probability 1.0 accepted: would starve the machine forever")
	}
}

// FuzzParse checks that every plan Parse accepts is valid, encodes to
// JSON (the harness keys runs by it) and survives a String round trip.
// Arguments are compared where they take effect: a delay or spike
// amount under a zero probability, and the epoch spelled 0 or default,
// change no injection.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"", "mild", "none", "transit=0.1:2000", "hwq=0.02", "smx=0.01", "dram=0.05:200", "epoch=4096",
		"transit=0.1:2000,hwq=0.02,smx=0.01,dram=0.05:200,epoch=4096", "hwq=NaN",
	} {
		f.Add(spec, uint64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		p, err := Parse(spec, seed)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid plan: %v", spec, err)
		}
		if _, err := json.Marshal(p); err != nil {
			t.Fatalf("Parse(%q): plan does not encode: %v", spec, err)
		}
		q, err := Parse(p.String(), seed)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", spec, p.String(), err)
		}
		for k := Kind(0); k < numKinds; k++ {
			if p.Prob(k) != q.Prob(k) {
				t.Errorf("%s probability %v became %v through %q", k, p.Prob(k), q.Prob(k), p.String())
			}
		}
		if p.LaunchDelayProb > 0 && p.LaunchDelayMax != q.LaunchDelayMax {
			t.Errorf("max delay %d became %d through %q", p.LaunchDelayMax, q.LaunchDelayMax, p.String())
		}
		if p.DRAMSpikeProb > 0 && p.DRAMSpikeExtra != q.DRAMSpikeExtra {
			t.Errorf("spike latency %d became %d through %q", p.DRAMSpikeExtra, q.DRAMSpikeExtra, p.String())
		}
		if epoch(p) != epoch(q) || p.Seed != q.Seed {
			t.Errorf("plan %+v became %+v through %q", p, q, p.String())
		}
	})
}

func epoch(p Plan) uint64 {
	if p.EpochCycles == 0 {
		return DefaultEpochCycles
	}
	return p.EpochCycles
}
