// Command perfbench is depburst's repeatable performance benchmark. One
// invocation runs one workload for a fixed host-time budget, checks every
// output the program produced against an oracle computed apart from it, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload sim-cold --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for their make-up and why each exists):
//
//	sim-cold     Figure 1 truth matrix plus Figure 6 managed runs, full detail
//	sim-sampled  the same matrix under the default sampling policy, scaled up
//	serve-mix    closed-loop POST /v1/predict over loopback from 2 clients
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once traced and prints the per-layer metrics, writing them
// (with the tracing overhead) to one file as well. --repeat N reruns the
// workload N times in fresh processes and prints each metric's median and
// quartiles. --write-reference regenerates the sim-sampled full-detail
// reference table.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// workloadNames lists the workloads in their documented order.
var workloadNames = []string{"sim-cold", "sim-sampled", "serve-mix"}

// scratchRoot holds the benchmark's temporary cache directories and trace
// files, relative to the directory the benchmark runs in.
const scratchRoot = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "", "workload to run: sim-cold, sim-sampled or serve-mix")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "host seconds of measured rounds (whole rounds; at least one)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	repeat := flag.Int("repeat", 0, "rerun the workload N times in fresh processes and print median and quartiles")
	writeRef := flag.String("write-reference", "", "regenerate the sim-sampled full-detail reference table into FILE and exit")
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fatalf("write reference: %v", err)
		}
		fmt.Printf("reference table -> %s\n", *writeRef)
		return
	}
	if !knownWorkload(*workload) {
		fatalf("unknown workload %q (have %v)", *workload, workloadNames)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			fatalf("repeat: %v", err)
		}
		return
	}

	dir, err := os.MkdirTemp(ensureDir(scratchRoot), "run-")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	defer os.RemoveAll(dir)

	opts := runOpts{seed: *seed, seconds: float64(*seconds), dir: dir}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d seconds %d trace %d GOMAXPROCS %d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var res *result
	if *trace == 1 {
		res, err = runTraced(*workload, opts)
	} else {
		res, err = runWorkload(*workload, opts)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", *workload, err)
	}
	for _, msg := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	if *trace == 1 {
		path := filepath.Join(scratchRoot, "trace-"+*workload+"-"+strconv.FormatUint(*seed, 10)+".json")
		if err := os.WriteFile(path, res.line(), 0o644); err != nil {
			fatalf("write trace file: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: per-layer metrics -> %s\n", path)
	}
	os.Stdout.Write(res.line())
}

// runOpts are one run's inputs.
type runOpts struct {
	seed    uint64
	seconds float64
	dir     string // scratch directory, removed when the run ends
}

// runWorkload runs the named workload's measured rounds and checks them.
func runWorkload(name string, o runOpts) (*result, error) {
	switch name {
	case "sim-cold":
		return runSim(o, simColdConfig())
	case "sim-sampled":
		return runSim(o, simSampledConfig())
	case "serve-mix":
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func ensureDir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("create %s: %v", dir, err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
