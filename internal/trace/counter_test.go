package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// counterExport writes a small counter-track document.
func counterExport(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	p := NewPerfetto(&buf, 0)
	for cycle := uint64(0); cycle < 3; cycle++ {
		p.Counter("queue depth", cycle*100, float64(cycle))
		p.Counter("occupancy", cycle*100, 0.25*float64(cycle))
	}
	// A late event must still advance the last-seen cycle used for
	// forced close-outs.
	p.Counter("queue depth", 5000, 0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestPerfettoCounterTracks(t *testing.T) {
	out := counterExport(t)
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
			TS   uint64 `json:"ts"`
			Args struct {
				Name  string   `json:"name"`
				Value *float64 `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, out)
	}

	// Track ids allocate in first-use order from the counter base, and
	// each track announces its name exactly once.
	tids := map[string]int{}
	samples := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" && e.TID >= 100 {
				if _, dup := tids[e.Args.Name]; dup {
					t.Errorf("track %q announced twice", e.Args.Name)
				}
				tids[e.Args.Name] = e.TID
			}
		case "C":
			samples++
			if e.Args.Value == nil {
				t.Errorf("counter sample %q has no value", e.Name)
			}
			if tids[e.Name] != e.TID {
				t.Errorf("sample of %q on tid %d, track registered as %d", e.Name, e.TID, tids[e.Name])
			}
		}
	}
	if tids["queue depth"] != 100 || tids["occupancy"] != 101 {
		t.Errorf("track ids = %v, want first-use order from 100", tids)
	}
	if samples != 7 {
		t.Errorf("got %d counter samples, want 7", samples)
	}
}

func TestPerfettoCounterExportDeterministic(t *testing.T) {
	if !bytes.Equal(counterExport(t), counterExport(t)) {
		t.Error("two identical counter exports differ byte-for-byte")
	}
}

// TestPerfettoCountersComposeWithEvents: counters interleave with the
// ordinary event stream without disturbing close-out sorting.
func TestPerfettoCountersComposeWithEvents(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		p := NewPerfetto(&buf, 1)
		p.Record(Event{Cycle: 1, Kind: KernelSubmitted, Kernel: 1, CTA: -1})
		p.Counter("queue depth", 2, 1)
		p.Record(Event{Cycle: 3, Kind: KernelArrived, Kernel: 1, CTA: -1})
		// Kernel 1 never completes: Close force-closes it at the last
		// seen cycle, which the counter sample at ts=10 pushed forward.
		p.Counter("queue depth", 10, 0)
		if err := p.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	out := render()
	if !json.Valid(out) {
		t.Fatalf("export is not valid JSON:\n%s", out)
	}
	if !bytes.Equal(out, render()) {
		t.Error("mixed event+counter export is not deterministic")
	}
	if !strings.Contains(string(out), `"ts":10`) {
		t.Error("forced close-out did not advance to the counter's cycle")
	}
}

func TestParseKind(t *testing.T) {
	for k := Kind(0); k < Kind(11); k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v/%v, want %v/true", k.String(), got, ok, k)
		}
	}
	if _, ok := ParseKind("kind(99)"); ok {
		t.Error("ParseKind accepted the fallback form")
	}
	if _, ok := ParseKind(""); ok {
		t.Error("ParseKind accepted the empty string")
	}
}

// FuzzParseKind checks that ParseKind accepts only the exact spellings
// Kind.String emits.
func FuzzParseKind(f *testing.F) {
	for k := Kind(0); k <= FaultInjected; k++ {
		f.Add(k.String())
	}
	f.Add("kind(99)")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		if k, ok := ParseKind(s); ok && k.String() != s {
			t.Errorf("ParseKind(%q) = %v, which prints as %q", s, k, k.String())
		}
	})
}
