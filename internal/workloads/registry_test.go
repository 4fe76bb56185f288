package workloads_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
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

// TestAllBenchmarksCompleteUnderEveryScheme runs every benchmark under
// every scheme on the shared inputs and checks that no run changed them.
func TestAllBenchmarksCompleteUnderEveryScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("long: full benchmark x scheme matrix")
	}
	before := inputDigests()
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
		}
	}
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
