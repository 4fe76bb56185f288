package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/profile"
	"spawnsim/internal/trace"
)

// chaosSpec is a fixed-seed chaos-enabled profiled spec: the same shape
// the CI report-smoke job runs twice and diffs.
func chaosSpec() harness.Spec {
	plan := faults.Mild(11)
	return harness.Spec{
		Benchmark: "MM-small",
		Scheme:    harness.SchemeSpawn,
		Profile:   &profile.Options{},
		FaultPlan: &plan,
		Retries:   2,
	}
}

// renderChaosReport runs the chaos spec and serializes its report.
func renderChaosReport(t *testing.T, format string) []byte {
	t.Helper()
	out, err := harness.Run(chaosSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Profile == nil {
		t.Fatal("no profile report on outcome")
	}
	var buf bytes.Buffer
	if err := writeReport(&buf, out.Profile, format); err != nil {
		t.Fatalf("writeReport(%s): %v", format, err)
	}
	return buf.Bytes()
}

// TestReportDoubleRunByteEquality is the CLI's determinism contract on
// a chaos-enabled spec: every output format is byte-identical across
// repeat runs.
func TestReportDoubleRunByteEquality(t *testing.T) {
	for _, format := range []string{"text", "json", "csv"} {
		a := renderChaosReport(t, format)
		b := renderChaosReport(t, format)
		if len(a) == 0 {
			t.Fatalf("%s report is empty", format)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s report differs between identical chaos runs:\nrun1: %s\nrun2: %s", format, a, b)
		}
	}
}

func TestIngestTrace(t *testing.T) {
	stream := strings.Join([]string{
		`{"cycle":10,"kind":"kernel-submitted","kernel":1,"cta":-1,"extra":0}`,
		`{"cycle":20,"kind":"kernel-arrived","kernel":1,"cta":-1,"extra":0}`,
		`{"cycle":30,"kind":"cta-placed","kernel":1,"cta":0,"extra":2}`,
		`{"cycle":35,"kind":"launch-accepted","kernel":0,"cta":-1,"extra":7}`,
		`{"cycle":40,"kind":"some-future-kind","kernel":9,"cta":-1,"extra":0}`,
		`{"cycle":90,"kind":"kernel-completed","kernel":1,"cta":-1,"extra":0}`,
	}, "\n") + "\n"
	rep, err := ingestTrace(strings.NewReader(stream), profile.Options{})
	if err != nil {
		t.Fatalf("ingestTrace: %v", err)
	}
	if len(rep.Sites) != 1 || rep.Sites[0].Site != "(trace)" || rep.Sites[0].Kind != "unknown" {
		t.Fatalf("ingested sites = %+v, want one (trace)/unknown group", rep.Sites)
	}
	s := rep.Sites[0]
	if s.Count != 1 || s.Total.Sum != 80 || s.Transit.Sum != 10 || s.Queue.Sum != 10 {
		t.Errorf("ingested span stages = count %d total %d transit %d queue %d, want 1/80/10/10",
			s.Count, s.Total.Sum, s.Transit.Sum, s.Queue.Sum)
	}
	if rep.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0 (unknown kinds are skipped)", rep.Anomalies)
	}

	if _, err := ingestTrace(strings.NewReader("{not json}\n"), profile.Options{}); err == nil {
		t.Error("malformed JSONL did not error")
	}
}

// TestIngestBackwardsStageIsAnomaly is the regression test for stage
// edges that run backwards in time: an arrival before its submission
// used to wrap the transit time around uint64 instead of counting as an
// anomaly.
func TestIngestBackwardsStageIsAnomaly(t *testing.T) {
	stream := strings.Join([]string{
		`{"cycle":100,"kind":"kernel-submitted","kernel":1,"cta":-1,"extra":0}`,
		`{"cycle":5,"kind":"kernel-arrived","kernel":1,"cta":-1,"extra":0}`,
		`{"cycle":200,"kind":"kernel-completed","kernel":1,"cta":-1,"extra":0}`,
	}, "\n") + "\n"
	rep, err := ingestTrace(strings.NewReader(stream), profile.Options{})
	if err != nil {
		t.Fatalf("ingestTrace: %v", err)
	}
	if len(rep.Sites) != 1 {
		t.Fatalf("ingested sites = %+v, want one group", rep.Sites)
	}
	s := rep.Sites[0]
	if s.Transit.Count != 0 || s.Transit.Sum != 0 || s.Transit.Max != 0 {
		t.Errorf("backwards transit was observed: %+v", s.Transit)
	}
	if s.Total.Sum != 100 || s.Total.Max != 100 {
		t.Errorf("total = %+v, want sum and max 100", s.Total)
	}
	if rep.Anomalies != 1 {
		t.Errorf("anomalies = %d, want 1 (the backwards transit edge)", rep.Anomalies)
	}
}

// FuzzIngestTrace feeds arbitrary JSONL to the trace ingester, seeded
// with lines of a real simulator stream. Ingest must never panic, and a
// report it returns must keep every stage latency within the stream's
// cycle span.
func FuzzIngestTrace(f *testing.F) {
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	if _, err := harness.Run(harness.Spec{
		Benchmark:  "MM-small",
		Scheme:     harness.SchemeSpawn,
		TraceSinks: []trace.Sink{sink},
	}); err != nil {
		f.Fatalf("Run: %v", err)
	}
	if err := sink.Close(); err != nil {
		f.Fatalf("closing JSONL sink: %v", err)
	}
	// Seed single lines across the stream, plus the whole lifecycle of
	// the last kernel to retire: a short input holding one full span.
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i := 0; i < len(lines); i += len(lines)/16 + 1 {
		f.Add(lines[i])
	}
	var je jsonlEvent
	for i := len(lines) - 1; i >= 0; i-- {
		if err := json.Unmarshal([]byte(lines[i]), &je); err != nil {
			f.Fatalf("stream line %d: %v", i, err)
		}
		if je.Kind == "kernel-completed" {
			break
		}
	}
	tag := fmt.Sprintf(`"kernel":%d,`, je.Kernel)
	var span strings.Builder
	for _, l := range lines {
		if strings.Contains(l, tag) {
			span.WriteString(l)
		}
	}
	f.Add(span.String())
	f.Fuzz(func(t *testing.T, stream string) {
		rep, err := ingestTrace(strings.NewReader(stream), profile.Options{})
		if err != nil {
			return
		}
		for _, s := range rep.Sites {
			for _, h := range []profile.HistReport{s.Transit, s.Queue, s.Exec, s.Total} {
				if h.Max > rep.Cycles {
					t.Fatalf("site %s/%s: stage max %d exceeds the stream's %d cycles", s.Site, s.Kind, h.Max, rep.Cycles)
				}
			}
		}
	})
}

func TestWriteBenchTableFormats(t *testing.T) {
	rows := []benchRow{
		{Benchmark: "A", Report: &profile.Report{Runs: 1, Cycles: 100, Ticked: 60, Skipped: 40,
			EngineSkipRatio: 0.4, SkippableRatio: 0.9,
			Components: []profile.ComponentReport{{Name: "gmu", StallQueue: 30}}}},
		{Benchmark: "B", Report: &profile.Report{Runs: 1, Cycles: 50, Ticked: 50}},
	}
	var txt, csv, js bytes.Buffer
	if err := writeBenchTable(&txt, rows, "text"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "gmu/queue") {
		t.Errorf("text table lacks dominant stall:\n%s", txt.String())
	}
	if err := writeBenchTable(&csv, rows, "csv"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 3 {
		t.Errorf("csv table has %d lines, want 3 (header + 2 rows):\n%s", lines, csv.String())
	}
	if err := writeBenchTable(&js, rows, "json"); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Benchmarks []struct {
			Benchmark string `json:"benchmark"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatalf("json table does not parse: %v", err)
	}
	if len(parsed.Benchmarks) != 2 || parsed.Benchmarks[0].Benchmark != "A" {
		t.Errorf("json table rows = %+v", parsed.Benchmarks)
	}
}

func TestWritePerfettoCountersDeterministic(t *testing.T) {
	rep := &profile.Report{Timeline: []profile.Sample{
		{Cycle: 0, QueuedKernels: 1, ActiveWarps: 10, Utilization: 0.5},
		{Cycle: 4096, QueuedKernels: 3, BusySMXs: 2, BusyBanks: 1},
	}}
	render := func() []byte {
		var buf bytes.Buffer
		if err := writePerfettoCounters(&buf, rep); err != nil {
			t.Fatalf("writePerfettoCounters: %v", err)
		}
		return buf.Bytes()
	}
	out := render()
	if !json.Valid(out) {
		t.Fatalf("counter export is not valid JSON:\n%s", out)
	}
	if !bytes.Equal(out, render()) {
		t.Error("counter export is not deterministic")
	}
	for _, track := range counterTracks {
		if !strings.Contains(string(out), `"name":"`+track.name+`"`) {
			t.Errorf("export missing track %q", track.name)
		}
	}
}
