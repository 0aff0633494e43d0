package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the contract the driver checks runs against,
// and the one place the bounds live.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// exactMetrics are counts that must repeat exactly for a fixed seed and
// fixed sizes, whatever the machine does (BENCHMARK.json's schema has no
// place to say so, its bound only covers the spread across seeds).
var exactMetrics = map[string]bool{"def42_peak_tuples": true, "disk_bytes_per_fact": true}

// runRecord is one child-process run as stored in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

// aaRow is what two sets of runs of one tree showed for one end-to-end
// metric on one workload.
type aaRow struct {
	MedianA float64 `json:"median_a"`
	MedianB float64 `json:"median_b"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// resultFile is what `sepmark -out` writes and `sepmark compare` reads.
type resultFile struct {
	Env    environment                 `json:"env"`
	Seed   int64                       `json:"seed"`
	Repeat int                         `json:"repeat"`
	Runs   []runRecord                 `json:"runs"`
	AA     map[string]map[string]aaRow `json:"aa,omitempty"`
}

// values returns the metric's value in every untraced run of workload,
// in seed order.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (f *resultFile) failRatio(workload string) float64 {
	var failed, attempted float64
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed, attempted = failed+float64(r.Failed), attempted+float64(r.Attempted)
		}
	}
	return ratio(failed, attempted)
}

// collect runs every workload: repeat untraced runs with seeds seed,
// seed+1, ... and one traced run, each in a fresh child process so no
// run inherits another's heap, caches or page state.
func collect(root string, seed int64, seconds, repeat int) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f := &resultFile{Env: currentEnv(fullSizes, seconds), Seed: seed, Repeat: repeat}
	for _, w := range workloads {
		for n := 0; n <= repeat; n++ {
			rec := runRecord{Workload: w.name, Seed: seed + int64(n)}
			if n == repeat {
				rec.Seed, rec.Trace = seed, 1
			}
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(rec.Seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(rec.Trace))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d trace %d: %w", w.name, rec.Seed, rec.Trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.runResult); err != nil {
				return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, rec.Seed, err)
			}
			fmt.Fprintf(os.Stderr, "sepmark: %s seed %d trace %d: %d ops, %d failed\n",
				w.name, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
			f.Runs = append(f.Runs, rec)
		}
	}
	return f, nil
}

// cmdAll is the one command that runs everything and prints every metric
// by name with its unit. With aa it does so twice and checks the two
// sets against the benchmark's own bounds.
func cmdAll(root string, sp *spec, seed int64, seconds, repeat int, out string, aa bool) int {
	first, err := collect(root, seed, seconds, repeat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepmark:", err)
		return 1
	}
	code := report(first, sp)
	if aa {
		second, err := collect(root, seed, seconds, repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepmark:", err)
			return 1
		}
		first.AA = map[string]map[string]aaRow{}
		fmt.Printf("\nA/A: two sets of %d runs of the same tree\n", repeat)
		if compareFiles(first, second, sp, first.AA) {
			code = 1
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(first, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepmark:", err)
			return 1
		}
	}
	return code
}

// report prints one set of runs: each end-to-end metric's median,
// quartiles and spread per workload, then the traced run's layer
// metrics. It returns 1 if any run failed an op.
func report(f *resultFile, sp *spec) int {
	code := 0
	for _, w := range workloads {
		fmt.Printf("\n%s  (%d untraced runs, seeds %d..%d; fail_ratio %.6g)\n",
			w.name, f.Repeat, f.Seed, f.Seed+int64(f.Repeat)-1, f.failRatio(w.name))
		if f.failRatio(w.name) > 0 {
			code = 1
		}
		fmt.Printf("  %-36s %14s %14s %14s %8s %6s  %s\n", "end-to-end", "median", "q1", "q3", "spread", "bound", "unit")
		for _, ms := range sp.EndToEnd {
			v := f.values(w.name, ms.Name)
			q1, q3 := quartiles(v)
			fmt.Printf("  %-36s %14.6g %14.6g %14.6g %8.4f %6.2f  %s\n", ms.Name, median(v), q1, q3, spread(v), ms.Bound, ms.Unit)
		}
		for _, r := range f.Runs {
			if r.Workload == w.name && r.Trace == 1 {
				fmt.Printf("  %-36s %14s\n", "per-layer (traced run)", "value")
				for _, ms := range sp.PerLayer {
					fmt.Printf("  %-36s %14.6g  %s\n", ms.Name, r.Metrics[ms.Name].Value, r.Metrics[ms.Name].Unit)
				}
			}
		}
	}
	return code
}

// verdict compares one end-to-end metric on one workload: a holds the
// base's runs, b the other side's. worse means b's median is worse than
// a's by more than the bound; unresolved means either side's own spread
// exceeds the bound, so the runs cannot tell; better means the medians
// differ the good way by more than both spreads. An exact metric must
// repeat value for value.
func verdict(a, b []float64, ms metricSpec) string {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma) // positive: b is worse
	if ms.Better == "higher" {
		worse = -worse
	}
	if exactMetrics[ms.Name] {
		switch {
		case reflect.DeepEqual(a, b):
			return "unchanged"
		case worse > 0:
			return "worse"
		}
		return "better"
	}
	sp := max(spread(a), spread(b))
	switch {
	case sp > ms.Bound:
		return "unresolved"
	case worse > ms.Bound:
		return "worse"
	case worse < -sp:
		return "better"
	}
	return "unchanged"
}

// compareFiles prints one row per workload × end-to-end metric, b's ratio
// given against a's median, and reports whether anything is worse. For an
// A/A pair (rows non-nil, where each pairing is recorded) the two sides
// are one tree, so a metric also fails if the runs cannot resolve it, if
// a is worse than b, or if an exact count differs at all.
func compareFiles(a, b *resultFile, sp *spec, rows map[string]map[string]aaRow) (bad bool) {
	fmt.Printf("%-20s %-20s %12s %25s %12s %25s %9s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "verdict")
	for _, w := range workloads {
		for _, ms := range sp.EndToEnd {
			va, vb := a.values(w.name, ms.Name), b.values(w.name, ms.Name)
			v := verdict(va, vb, ms)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Printf("%-20s %-20s %12.6g %25s %12.6g %25s %9.4f  %s\n", w.name, ms.Name,
				median(va), fmt.Sprintf("[%.6g, %.6g]", qa1, qa3), median(vb), fmt.Sprintf("[%.6g, %.6g]", qb1, qb3),
				ratio(median(vb), median(va)), v)
			if rows != nil {
				if rows[w.name] == nil {
					rows[w.name] = map[string]aaRow{}
				}
				rows[w.name][ms.Name] = aaRow{median(va), median(vb), spread(va), spread(vb), ms.Bound, v}
				bad = bad || v == "unresolved" || verdict(vb, va, ms) == "worse" || (exactMetrics[ms.Name] && v != "unchanged")
			}
			bad = bad || v == "worse"
		}
		if fa, fb := a.failRatio(w.name), b.failRatio(w.name); fb > fa {
			fmt.Printf("%-20s %-20s %12.6g %25s %12.6g %25s %9s  worse\n", w.name, "fail_ratio", fa, "", fb, "", "")
			bad = true
		}
	}
	return bad
}

func cmdCompare(sp *spec, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: sepmark compare A.json B.json")
		return 2
	}
	var files [2]resultFile
	for i, name := range args {
		data, err := os.ReadFile(name)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sepmark: %s: %v\n", name, err)
			return 2
		}
	}
	a, b := &files[0], &files[1]
	if a.Env != b.Env || a.Seed != b.Seed || a.Repeat != b.Repeat {
		fmt.Fprintf(os.Stderr, "sepmark: refusing to compare: the runs were not made under the same conditions\n  A: %+v seed %d repeat %d\n  B: %+v seed %d repeat %d\n",
			a.Env, a.Seed, a.Repeat, b.Env, b.Seed, b.Repeat)
		return 2
	}
	if compareFiles(a, b, sp, nil) {
		return 1
	}
	return 0
}
