// Command spawnsim runs one benchmark under one execution scheme and
// prints the collected metrics.
//
// Usage:
//
//	spawnsim -bench BFS-graph500 -scheme spawn
//	spawnsim -bench MM-small -scheme threshold:512 -ctasize 64
//	spawnsim -bench SA-thaliana -scheme baseline -series
//	spawnsim -bench BFS-graph500 -scheme spawn -perfetto-out trace.json -metrics-out metrics.json
//	spawnsim -list
//
// Schemes: flat, baseline, offline, spawn, dtbl, threshold:N.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"syscall"

	"spawnsim/internal/config"
	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/metrics"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/store"
	"spawnsim/internal/trace"
	"spawnsim/internal/workloads"
)

func main() {
	var (
		bench   = flag.String("bench", "BFS-graph500", "benchmark name (see -list)")
		scheme  = flag.String("scheme", "spawn", "execution scheme: flat|baseline|offline|spawn|dtbl|threshold:N")
		ctaSize = flag.Int("ctasize", 0, "override child CTA size (threads)")
		perCTA  = flag.Bool("stream-per-cta", false, "one SWQ per parent CTA instead of per child kernel")
		engine  = flag.String("engine", "wheel", "simulator core: 'wheel' (event-wheel, skips quiet cycles) or 'stepped' (cycle-stepped reference); both produce byte-identical results")
		series  = flag.Bool("series", false, "print concurrency/utilization time series")
		traceN  = flag.Int("trace", 0, "print the last N simulator events (bounded ring; use -trace-out for the full stream)")

		metricsOut  = flag.String("metrics-out", "", "dump end-of-run metrics snapshot to this file (.csv for CSV, JSON otherwise)")
		traceOut    = flag.String("trace-out", "", "stream every simulator event to this JSONL file (full stream, unlike the -trace N tail)")
		perfettoOut = flag.String("perfetto-out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev or chrome://tracing)")
		heartbeatN  = flag.Uint64("heartbeat", 0, "print a progress heartbeat to stderr every N simulated cycles (0 = off)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")

		parallel = flag.Int("parallel", 0, "concurrent simulations for sweep schemes like 'offline' (0 = GOMAXPROCS, 1 = serial); results are byte-identical at any width")

		timeout   = flag.Duration("timeout", 0, "wall-clock deadline; the run aborts cleanly with partial results (0 = none)")
		maxCycles = flag.Uint64("max-cycles", 0, "simulated-cycle budget (0 = simulator default)")
		check     = flag.Bool("check", false, "audit simulator conservation-law invariants during the run")
		chaosPlan = flag.String("chaos-plan", "", "fault-injection plan: 'mild', 'none', or clauses like transit=0.1:2000,hwq=0.02,smx=0.01,dram=0.05:200,epoch=8192")
		chaosSeed = flag.Uint64("chaos-seed", 0, "seed selecting the concrete fault schedule for -chaos-plan")
		retries   = flag.Int("retries", 0, "retry transient chaos-run failures up to N times under derived seeds")

		resume      = flag.String("resume", "", "checkpoint directory: completed runs are stored in <dir>/store and journaled to <dir>/journal.jsonl; re-invoking with the same flags replays finished sweep points and re-runs only the missing ones")
		tolerate    = flag.Bool("tolerate", false, "degrade gracefully when the retry budget is exhausted: keep the partial result with the failure quarantined instead of failing the run")
		stallWindow = flag.Uint64("stall-window", 0, "abort a run that makes no simulated progress for N scheduler steps (livelock watchdog; 0 = off)")

		list = flag.Bool("list", false, "list benchmarks and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		fmt.Println("SA-elegans (Figure 21 only)")
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "spawnsim: pprof:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	spec := harness.Spec{
		Benchmark:    *bench,
		Scheme:       *scheme,
		ChildCTASize: *ctaSize,
	}
	if *perCTA {
		spec.StreamMode = kernel.StreamPerParentCTA
	}
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	spec.Engine = eng
	if *series {
		spec.SampleInterval = 2000
	}
	spec.TraceEvents = *traceN
	if *metricsOut != "" {
		spec.Metrics = metrics.NewRegistry()
	}
	spec.Deadline = *timeout
	spec.MaxCycles = *maxCycles
	spec.CheckInvariants = *check
	spec.Retries = *retries
	spec.Tolerate = *tolerate
	spec.StallWindow = *stallWindow
	if *chaosPlan != "" {
		p, err := faults.Parse(*chaosPlan, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		spec.FaultPlan = &p
	}
	// Ctrl-C / SIGTERM abort the run cooperatively: the simulator stops
	// at a clean point with a partial result and the sinks still close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	spec.Context = ctx

	var sinks []trace.Sink
	var files []*os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		files = append(files, f)
		sinks = append(sinks, trace.NewJSONL(f))
	}
	if *perfettoOut != "" {
		f, err := os.Create(*perfettoOut)
		if err != nil {
			fatal(err)
		}
		files = append(files, f)
		cfg := spec.Config
		if cfg == nil {
			k := config.K20m()
			cfg = &k
		}
		sinks = append(sinks, trace.NewPerfetto(f, cfg.NumSMX))
	}
	spec.TraceSinks = sinks

	if *heartbeatN > 0 {
		spec.HeartbeatEvery = *heartbeatN
		spec.Heartbeat = func(p sim.Progress) {
			fmt.Fprintf(os.Stderr, "heartbeat: cycle %d, %d live kernels (%d queued), %.2fM sim-cycles/s\n",
				p.Cycle, p.LiveKernels, p.QueuedKernels, p.CyclesPerSec/1e6)
		}
	}

	// The pool only matters for sweep schemes (offline): candidates fan
	// out across -parallel workers with byte-identical results.
	pool := &harness.Pool{Workers: *parallel, Context: ctx}
	if *resume != "" {
		st, err := store.Open(filepath.Join(*resume, "store"))
		if err != nil {
			fatal(err)
		}
		j, err := store.OpenJournal(filepath.Join(*resume, "journal.jsonl"))
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		pool.Store, pool.Journal = st, j
		if n := len(j.Prior()); n > 0 {
			fmt.Fprintf(os.Stderr, "spawnsim: resuming over %d journaled points in %s\n", n, *resume)
		}
	}
	if *heartbeatN > 0 {
		// Sweep-level progress rides the heartbeat flag: per-candidate
		// start/finish lines on stderr, serialized by the pool collector.
		pool.Progress = func(p harness.PoolProgress) {
			verb := "done "
			if p.Started {
				verb = "start"
			}
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s %s/%s (worker %d)\n",
				p.Done, p.Total, verb, p.Benchmark, p.Scheme, p.Worker)
		}
	}
	out, err := pool.RunSpec(spec)

	// Close sinks before checking the run error so partial traces are
	// flushed (Perfetto closes dangling spans) even on failure.
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, f := range files {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		if out != nil && out.Result != nil {
			fmt.Fprintf(os.Stderr, "spawnsim: aborted at cycle %d; partial results below\n", out.Result.Cycles)
			fmt.Println(out.Summary())
		}
		fatal(err)
	}

	fmt.Println(out.Summary())
	if out.Threshold >= 0 {
		fmt.Printf("static THRESHOLD used: %d\n", out.Threshold)
	}
	if spec.FaultPlan != nil {
		fmt.Printf("chaos: plan %q seed %d injected %d faults\n",
			spec.FaultPlan.String(), spec.FaultPlan.Seed, out.FaultsInjected)
	}
	for _, f := range out.Failures {
		if f.Quarantined {
			fmt.Fprintf(os.Stderr, "spawnsim: %s quarantined after %d attempts: %v\n", f.Scheme, f.Attempts, f.Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "spawnsim: sweep candidate %s failed: %v\n", f.Scheme, f.Err)
	}
	if *metricsOut != "" {
		if out.Metrics == nil {
			fatal(fmt.Errorf("no metrics snapshot collected"))
		}
		if err := out.Metrics.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics snapshot (%d series) written to %s\n", len(out.Metrics.Metrics), *metricsOut)
	}
	if *series {
		ss := out.Result
		fmt.Printf("parent CTAs: %v\n", compact(ss.ParentCTASeries.Values))
		fmt.Printf("child CTAs : %v\n", compact(ss.ChildCTASeries.Values))
	}
	if *traceN > 0 {
		fmt.Printf("last %d of %d simulator events:\n", len(out.Trace.Events()), out.Trace.Total())
		if err := out.Trace.Dump(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// fatal reports the error and exits with a code distinguishing the
// abort kind (130 canceled, 124 deadline/stalled, 3 invariant, 1
// otherwise), so sweep scripts can tell an interrupt from a timeout
// from a real failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spawnsim:", err)
	if kind, ok := harness.AbortKind(err); ok {
		fmt.Fprintf(os.Stderr, "spawnsim: abort kind: %s\n", kind)
	}
	os.Exit(harness.ExitCode(err))
}

// compact truncates long series for terminal output.
func compact(vs []float64) []float64 {
	if len(vs) <= 64 {
		return vs
	}
	out := make([]float64, 64)
	for i := range out {
		out[i] = vs[i*len(vs)/64]
	}
	return out
}
