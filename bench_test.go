// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md §3 maps each to its experiment).
// Every iteration regenerates the full experiment, so run with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// unless you want the adaptive runner to repeat multi-second sweeps.
//
// Multi-run experiments go through the parallel sweep engine at its
// default width (GOMAXPROCS workers), so these numbers measure the
// harness as shipped; outputs are byte-identical at any width.
package spawnsim_test

import (
	"sync"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/harness"
	"spawnsim/internal/inputs"
	"spawnsim/internal/stats"
	"spawnsim/internal/workloads"
)

// benchPool runs every multi-run experiment at the default worker count
// (GOMAXPROCS).
var benchPool = &harness.Pool{}

// BenchmarkTable1 builds every Table I workload app and checks their
// work totals. The registry builds each input once per process, so only
// the first iteration generates inputs; BenchmarkInputs times the
// generators themselves.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range workloads.Names() {
			bm, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			app := bm.Make()
			if err := app.Normalize(); err != nil {
				b.Fatal(err)
			}
			if app.TotalWork() <= 0 {
				b.Fatalf("%s: no work", name)
			}
		}
	}
}

// BenchmarkInputs times each Table I input generator at the size and
// seed the registry uses (internal/workloads/bench.go), with
// allocations.
func BenchmarkInputs(b *testing.B) {
	gens := []struct {
		name  string
		build func() any
	}{
		{"Citation", func() any { return inputs.Citation(65536, 8, 101) }},
		{"Graph500", func() any { return inputs.Graph500(16, 10, 102) }},
		{"UniformRelation", func() any { return inputs.UniformRelation(32768, 48, 103) }},
		{"GaussianRelation", func() any { return inputs.GaussianRelation(32768, 48, 14, 104) }},
		{"MandelGrid", func() any { return inputs.NewMandelGrid(131072, 256) }},
		{"SparseMatrix-small", func() any { return inputs.NewSparseMatrix(2048, 64, 8, 105) }},
		{"SparseMatrix-large", func() any { return inputs.NewSparseMatrix(4096, 128, 10, 106) }},
		{"ThalianaReads", func() any { return inputs.ThalianaReads(16384, 107) }},
		{"ElegansReads", func() any { return inputs.ElegansReads(16384, 108) }},
		{"AMRMesh", func() any { return inputs.NewAMRMesh(16384, 109) }},
	}
	for _, g := range gens {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inputSink = g.build()
			}
		})
	}
}

// inputSink keeps BenchmarkInputs' results live.
var inputSink any

// BenchmarkTable2 validates and renders the GPU configuration.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.K20m()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		if cfg.TableII() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5 sweeps the workload distribution of each benchmark
// (one sub-benchmark per Table I entry).
func BenchmarkFig5(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := benchPool.Fig5(name)
				if err != nil {
					b.Fatal(err)
				}
				best := 0.0
				for _, p := range r.Points {
					if p.Speedup > best {
						best = p.Speedup
					}
				}
				b.ReportMetric(best, "best-speedup")
			}
		})
	}
}

// BenchmarkFig6 regenerates the Baseline-DP concurrency timeline.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ss, err := benchPool.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if len(ss.Child) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig7 regenerates the child-CTA-size sensitivity study.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchPool.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the SWQ-assignment comparison.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := benchPool.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		var speedups []float64
		for _, r := range t.Rows {
			speedups = append(speedups, r.Values[0])
		}
		b.ReportMetric(stats.GeoMean(speedups), "geomean-speedup")
	}
}

// BenchmarkFig12 regenerates the child-CTA execution-time PDFs.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := benchPool.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 4 {
			b.Fatalf("want 4 benchmarks, got %d", len(rs))
		}
	}
}

// The Figures 15-18 benchmarks share one set of flat/baseline/offline/
// spawn runs, computed once.
var (
	mainOnce sync.Once
	mainMCs  []*harness.MainComparison
	mainErr  error
)

func comparisons(b *testing.B) []*harness.MainComparison {
	mainOnce.Do(func() { mainMCs, mainErr = benchPool.CompareAll() })
	if mainErr != nil {
		b.Fatal(mainErr)
	}
	return mainMCs
}

// BenchmarkFig15 computes the speedup table and reports the geomeans.
func BenchmarkFig15(b *testing.B) {
	mcs := comparisons(b)
	for i := 0; i < b.N; i++ {
		t := harness.Fig15(mcs)
		gm := t.Rows[len(t.Rows)-1]
		b.ReportMetric(gm.Values[0], "baseline-x")
		b.ReportMetric(gm.Values[1], "offline-x")
		b.ReportMetric(gm.Values[2], "spawn-x")
	}
}

// BenchmarkFig16 computes the occupancy table.
func BenchmarkFig16(b *testing.B) {
	mcs := comparisons(b)
	for i := 0; i < b.N; i++ {
		t := harness.Fig16(mcs)
		avg := t.Rows[len(t.Rows)-1]
		b.ReportMetric(avg.Values[2]/avg.Values[0], "spawn-over-baseline")
	}
}

// BenchmarkFig17 computes the L2 hit-rate table.
func BenchmarkFig17(b *testing.B) {
	mcs := comparisons(b)
	for i := 0; i < b.N; i++ {
		harness.Fig17(mcs)
	}
}

// BenchmarkFig18 computes the child-kernel-count table and reports the
// average SPAWN reduction vs Baseline-DP.
func BenchmarkFig18(b *testing.B) {
	mcs := comparisons(b)
	for i := 0; i < b.N; i++ {
		t := harness.Fig18(mcs)
		var reduction stats.Mean
		for _, r := range t.Rows {
			if r.Values[0] > 0 {
				reduction.Add(1 - r.Values[2]/r.Values[0])
			}
		}
		b.ReportMetric(reduction.Value()*100, "spawn-kernel-reduction-%")
	}
}

// BenchmarkFig19 regenerates the Baseline-DP vs SPAWN timelines.
func BenchmarkFig19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchPool.Fig19(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig20 regenerates the cumulative-launch CDFs.
func BenchmarkFig20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchPool.Fig20()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Spawn) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkFig21 regenerates the SPAWN vs DTBL comparison.
func BenchmarkFig21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchPool.Fig21(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// cycles per wall second) on one mid-size run, for performance tracking.
// The Graph500 input is generated in the first iteration only; later
// iterations time the simulation alone.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Run(harness.Spec{Benchmark: "BFS-graph500", Scheme: harness.SchemeBaseline})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(out.Result.Cycles), "sim-cycles/op")
	}
}

// BenchmarkAblation runs the SPAWN design-choice ablation of DESIGN.md §4.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchPool.Ablation("BFS-graph500"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHWQSensitivity runs the HWQ-count extension experiment.
func BenchmarkHWQSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchPool.HWQSensitivity("BFS-graph500"); err != nil {
			b.Fatal(err)
		}
	}
}
