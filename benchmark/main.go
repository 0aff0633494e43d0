// Command sepmark is the repository's benchmark: five closed-loop
// workloads over the Datalog engine, each checked against a naive
// oracle, reporting end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md in this directory.
//
//	sepmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//	sepmark [-repeat N] [-out results.json]                 every workload, each run in a fresh child process
//	sepmark -aa [-repeat N] [-out results.json]             the full set twice on this tree, checked against the bounds
//	sepmark compare A.json B.json                           two result files, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepmark:", err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepmark:", err)
		return 2
	}
	if len(args) > 0 && args[0] == "compare" {
		return cmdCompare(sp, args[1:])
	}
	fs := flag.NewFlagSet("sepmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this one workload in this process and print one JSON result line")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	aa := fs.Bool("aa", false, "run the full set twice on this tree and check both against the bounds")
	repeat := fs.Int("repeat", 10, "untraced runs per workload, each with its own seed (seed, seed+1, ...)")
	out := fs.String("out", "", "write the collected results to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	if *workloadName == "" {
		return cmdAll(root, sp, *seed, *seconds, *repeat, *out, *aa)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "sepmark: unknown workload %q\n", *workloadName)
		return 2
	}
	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second, sz: fullSizes,
		scratch: filepath.Join(root, ".bench_build", "data", fmt.Sprintf("run-%d", os.Getpid())),
	}
	defer os.RemoveAll(cfg.scratch)
	var res *runResult
	if *trace != 0 {
		cfg.traceOut = filepath.Join(root, "benchmark", "results", w.name+".trace.json")
		res, err = runTraced(w, cfg)
	} else {
		res, err = runWorkload(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepmark:", err)
		return 1
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// findRoot locates the checkout: the directory holding BENCHMARK.json,
// which is the working directory when run through run.sh and its parent
// when run as `go run .` inside benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..; run from the repository root or from benchmark/")
}

// printMetrics lists every metric by name with its unit.
func printMetrics(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("  %-36s %14.6g ratio (%d of %d)\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}
