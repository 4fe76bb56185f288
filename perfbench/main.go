// Command perfbench is spawnsim's benchmark. It runs one of four fixed
// workloads through the simulator's public API in one process and
// prints host-time end-to-end metrics (--trace 0) or per-layer metrics
// from a separate traced pass (--trace 1). Either way the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the layer table and the span file.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type flags struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
	probe    bool
}

func parseFlags(args []string) (flags, error) {
	var f flags
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload: single-dp, single-flat, sweep-graph500 or observed-dp")
	fs.Int64Var(&f.seed, "seed", defaultSeed, "input seed (100 reproduces the registry inputs)")
	fs.IntVar(&f.seconds, "seconds", 15, "seconds of timed batches (--trace 0)")
	fs.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	fs.StringVar(&f.spans, "spans", "", "span file for --trace 1 (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	fs.BoolVar(&f.probe, "probe-setup", false, "set up, print ready and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if fs.NArg() > 0 {
		return f, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if f.seconds < 1 {
		return f, fmt.Errorf("--seconds %d, want >= 1", f.seconds)
	}
	if f.trace != 0 && f.trace != 1 {
		return f, fmt.Errorf("--trace %d, want 0 or 1", f.trace)
	}
	if f.spans == "" {
		f.spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", f.workload, f.seed))
	}
	return f, nil
}

// outcome is the benchmark's final line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func mainErr(args []string) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}
	b, err := setup(f.workload, f.seed)
	if err != nil {
		return err
	}
	if f.probe {
		fmt.Println("ready")
		return nil
	}
	var m metricSet
	if f.trace == 0 {
		if err := timedPass(b, f, &m); err != nil {
			return err
		}
	} else if err := tracedPass(b, f, &m); err != nil {
		return err
	}
	for _, n := range b.notes {
		fmt.Println("note:", n)
	}
	for _, fl := range b.failures {
		fmt.Println("FAILED:", fl)
	}
	for _, n := range m.names {
		v := m.vals[n]
		fmt.Printf("%-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Printf("%-36s %14.6g ratio (%d of %d runs failed)\n", "fail_ratio", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	line, err := json.Marshal(outcome{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: m.vals})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupProbes is how many fresh processes time set-up; setup_s is
// their median.
const setupProbes = 21

// probeSetup times set-up the only way that includes process start:
// it starts this binary with --probe-setup and waits for "ready".
func probeSetup(f flags) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe-setup", "--workload", f.workload, "--seed", strconv.FormatInt(f.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if err := errors.Join(rerr, werr); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if line != "ready\n" {
			return nil, fmt.Errorf("set-up probe printed %q", line)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}
