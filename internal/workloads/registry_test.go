package workloads_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spawnsim/internal/harness"
	"spawnsim/internal/inputs"
	"spawnsim/internal/workloads"
)

// inputDigests hashes every shared input, unexported fields included
// (%#v prints them), so a run that wrote to one shows up as a changed
// digest.
func inputDigests() map[string][sha256.Size]byte {
	out := map[string][sha256.Size]byte{}
	for name, in := range workloads.SharedInputs() {
		h := sha256.New()
		fmt.Fprintf(h, "%#v", in)
		out[name] = [sha256.Size]byte(h.Sum(nil))
	}
	return out
}

var update = flag.Bool("update", false, "rewrite testdata/results.golden")

// goldenPath pins the absolute result of every (benchmark, scheme) run.
// The parity suites only compare one build with itself (wheel vs
// stepped, 1 vs N workers, resumed vs uninterrupted); this file is the
// oracle that notices when a change moves the simulated numbers at all.
var goldenPath = filepath.Join("testdata", "results.golden")

// goldenLine is one run's pinned result: cycles and L2 hit rate in
// clear for a readable diff, plus the sha256 of the whole Result's JSON.
func goldenLine(t *testing.T, bench, scheme string, out *harness.Outcome) string {
	t.Helper()
	raw, err := json.Marshal(out.Result)
	if err != nil {
		t.Fatalf("%s/%s: marshal result: %v", bench, scheme, err)
	}
	return fmt.Sprintf("%s %s cycles=%d l2_hit_rate=%s result_sha256=%x",
		bench, scheme, out.Result.Cycles,
		strconv.FormatFloat(out.Result.L2HitRate, 'g', -1, 64), sha256.Sum256(raw))
}

// checkGolden compares the run lines with the committed golden file, or
// rewrites it under -update.
func checkGolden(t *testing.T, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%s has %d runs, this build produced %d", goldenPath, len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("result differs from %s:\n got: %s\nwant: %s", goldenPath, lines[i], wantLines[i])
		}
	}
}

// TestAllBenchmarksCompleteUnderEveryScheme runs every benchmark under
// every scheme on the shared inputs, checks that no run changed them,
// and pins every run's result against testdata/results.golden.
func TestAllBenchmarksCompleteUnderEveryScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("long: full benchmark x scheme matrix")
	}
	before := inputDigests()
	var lines []string
	for _, b := range append(workloads.Names(), "SA-elegans") {
		for _, s := range []string{harness.SchemeFlat, harness.SchemeBaseline, harness.SchemeSpawn, harness.SchemeDTBL} {
			out, err := harness.Run(harness.Spec{Benchmark: b, Scheme: s})
			if err != nil {
				t.Errorf("%s/%s: %v", b, s, err)
				continue
			}
			if out.Result.Cycles == 0 {
				t.Errorf("%s/%s: zero cycles", b, s)
			}
			if out.Result.Occupancy <= 0 || out.Result.Occupancy > 1 {
				t.Errorf("%s/%s: occupancy %v out of range", b, s, out.Result.Occupancy)
			}
			lines = append(lines, goldenLine(t, b, s, out))
		}
	}
	checkGolden(t, lines)
	for name, d := range inputDigests() {
		if d != before[name] {
			t.Errorf("shared input %s changed during the runs", name)
		}
	}
}

// TestGraph500InputSharedAcrossGoroutines makes the three graph500
// benchmarks from several goroutines at once (run it with -race): every
// App reads the one shared graph, and a later Make does not build
// another.
func TestGraph500InputSharedAcrossGoroutines(t *testing.T) {
	names := []string{"BFS-graph500", "SSSP-graph500", "GC-graph500"}
	const perBench = 3
	graphs := make([]*inputs.Graph, perBench*len(names))
	var wg sync.WaitGroup
	for i := range graphs {
		b, err := workloads.ByName(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, b workloads.Benchmark) {
			defer wg.Done()
			app := b.Make()
			graphs[i] = workloads.Graph500Input()
			if app.Elements != graphs[i].N {
				t.Errorf("%s: %d elements, shared graph has %d vertices", b.Name, app.Elements, graphs[i].N)
			}
		}(i, b)
	}
	wg.Wait()
	for i, g := range graphs {
		if g != graphs[0] {
			t.Errorf("goroutine %d (%s) saw graph %p, goroutine 0 saw %p", i, names[i%len(names)], g, graphs[0])
		}
	}

	// Generating the graph allocates megabytes; an App is a few closures.
	b, _ := workloads.ByName("BFS-graph500")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.Make()
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n > 1<<20 {
		t.Errorf("Make after the first build allocated %d bytes: the input was rebuilt", n)
	}
}
