package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"spawnsim/internal/config"
	spawn "spawnsim/internal/core"
	"spawnsim/internal/harness"
	"spawnsim/internal/inputs"
	simrt "spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/workloads"
)

// defaultSeed reproduces the registry inputs: workloads.Registry seeds
// every Table I input at 100 plus the input's slot, and so does
// appMakers. The traced pass checks the equivalence against harness.Run.
const defaultSeed int64 = 100

// Table I sizes, as workloads.Registry builds them (unexported there).
const (
	citationN   = 65536
	citationDeg = 8
	g500Scale   = 16
	g500Deg     = 10
	joinN       = 32768
	joinMatches = 48
	mandelPix   = 131072
	mandelIter  = 256
	mandelRgn   = 128
	mmSmallN    = 2048
	mmSmallCols = 64
	mmLargeN    = 4096
	mmLargeCols = 128
	saReadsN    = 16384
	amrCells    = 16384
)

// appMakers returns one app constructor per benchmark the seeded
// workloads use. Each call builds a fresh input, as the registry's
// Benchmark.Make does, so input generation is part of every run.
func appMakers(seed int64) map[string]func() *workloads.App {
	s := func(slot int64) int64 { return seed + slot }
	return map[string]func() *workloads.App{
		"AMR":          func() *workloads.App { return workloads.NewAMR(inputs.NewAMRMesh(amrCells, s(9))) },
		"BFS-citation": func() *workloads.App { return workloads.NewBFS(inputs.Citation(citationN, citationDeg, s(1))) },
		"GC-citation":  func() *workloads.App { return workloads.NewGC(inputs.Citation(citationN, citationDeg, s(1))) },
		"JOIN-uniform": func() *workloads.App {
			return workloads.NewJoin("join-uniform", inputs.UniformRelation(joinN, joinMatches, s(3)))
		},
		"JOIN-gaussian": func() *workloads.App {
			return workloads.NewJoin("join-gaussian", inputs.GaussianRelation(joinN, joinMatches, 14, s(4)))
		},
		// Mandel's grid is deterministic and takes no seed.
		"Mandel": func() *workloads.App {
			return workloads.NewMandel(inputs.NewMandelGrid(mandelPix, mandelIter), mandelRgn)
		},
		"MM-small":    func() *workloads.App { return workloads.NewMM(inputs.NewSparseMatrix(mmSmallN, mmSmallCols, 8, s(5))) },
		"MM-large":    func() *workloads.App { return workloads.NewMM(inputs.NewSparseMatrix(mmLargeN, mmLargeCols, 10, s(6))) },
		"SA-thaliana": func() *workloads.App { return workloads.NewSA("sa-thaliana", inputs.ThalianaReads(saReadsN, s(7))) },
	}
}

// run is one simulation of a batch: a benchmark under a scheme, with
// the constructor that builds its app.
type run struct {
	bench  string
	scheme string // flat, baseline, spawn or threshold:N
	make   func() *workloads.App
}

func (r run) label() string { return r.bench + "/" + r.scheme }

// Workload names; later changes refer to them, so they are fixed.
const (
	wlSingleDP   = "single-dp"
	wlSingleFlat = "single-flat"
	wlSweep      = "sweep-graph500"
	wlObserved   = "observed-dp"
)

var workloadNames = []string{wlSingleDP, wlSingleFlat, wlSweep, wlObserved}

// sweepBench is the benchmark the sweep workload runs through Pool.Fig5.
const sweepBench = "BFS-graph500"

// dpPairs are the launch-heavy Dynamic Parallelism runs of single-dp
// (and observed-dp): the three baselines launch 55.5k, 21.8k and 13.2k
// child kernels; Mandel/spawn is ALU-bound with almost no memory traffic.
var dpPairs = [][2]string{
	{"AMR", "baseline"}, {"JOIN-uniform", "baseline"}, {"GC-citation", "baseline"},
	{"BFS-citation", "spawn"}, {"AMR", "spawn"}, {"MM-small", "baseline"}, {"Mandel", "spawn"},
}

// flatPairs are single-flat's runs: no child launches, so the memory
// hierarchy and the warp scheduler do the work.
var flatPairs = [][2]string{{"JOIN-gaussian", "flat"}, {"SA-thaliana", "flat"}, {"MM-large", "flat"}}

// seededRuns builds the batch of a single-run workload from inputs made
// with seed.
func seededRuns(workload string, seed int64) ([]run, error) {
	var pairs [][2]string
	switch workload {
	case wlSingleDP, wlObserved:
		pairs = dpPairs
	case wlSingleFlat:
		pairs = flatPairs
	default:
		return nil, fmt.Errorf("workload %q has no seeded runs", workload)
	}
	b := appMakers(seed)
	runs := make([]run, len(pairs))
	for i, p := range pairs {
		runs[i] = run{bench: p[0], scheme: p[1], make: b[p[0]]}
	}
	return runs, nil
}

// sweepRuns replays Pool.Fig5(sweepBench) as direct runs: the flat
// reference and one static threshold per sweep point, on the registry
// input (Fig5 names its input by benchmark, so it has no seed).
func sweepRuns() ([]run, error) {
	b, err := workloads.ByName(sweepBench)
	if err != nil {
		return nil, err
	}
	app := b.Make()
	if err := app.Normalize(); err != nil {
		return nil, err
	}
	runs := []run{{bench: sweepBench, scheme: "flat", make: b.Make}}
	for _, t := range harness.SweepThresholds(app) {
		runs = append(runs, run{bench: sweepBench, scheme: "threshold:" + strconv.Itoa(t), make: b.Make})
	}
	return runs, nil
}

// policyFor resolves a scheme the way harness.Run does.
func policyFor(scheme string, app *workloads.App, cfg config.GPU) (kernel.Policy, error) {
	switch {
	case scheme == "flat":
		return simrt.Flat{}, nil
	case scheme == "baseline":
		return simrt.Threshold{T: app.DefaultThreshold}, nil
	case scheme == "spawn":
		return spawn.New(cfg), nil
	case strings.HasPrefix(scheme, "threshold:"):
		t, err := strconv.Atoi(strings.TrimPrefix(scheme, "threshold:"))
		if err != nil {
			return nil, fmt.Errorf("bad scheme %q: %w", scheme, err)
		}
		return simrt.Threshold{T: t}, nil
	}
	return nil, fmt.Errorf("unknown scheme %q", scheme)
}

// loadWorkers is the sweep's Pool.Workers: one per CPU the process may
// use, so generating load never needs more threads than nproc.
func loadWorkers() int { return runtime.NumCPU() }
