package main

import (
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// The smoke test runs every workload at toy sizes and pins the contract
// between the code and BENCHMARK.json: the same metric names and units on
// both sides, exact counts that repeat for a seed, inputs that change
// with the seed, and an answer check that bites.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func toyConfig(t *testing.T, seed int64) runConfig {
	return runConfig{seed: seed, window: 150 * time.Millisecond, sz: toySizes, scratch: filepath.Join(t.TempDir(), "scratch")}
}

func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	for _, ms := range want {
		m, ok := got[ms.Name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json but was not emitted", ms.Name)
		} else if m.Unit != ms.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
		}
		if !nameRE.MatchString(ms.Name) {
			t.Errorf("metric name %q does not match %s", ms.Name, nameRE)
		}
	}
	if len(got) != len(want) {
		known := map[string]bool{}
		for _, ms := range want {
			known[ms.Name] = true
		}
		for name := range got {
			if !known[name] {
				t.Errorf("metric %s was emitted but is not in BENCHMARK.json", name)
			}
		}
	}
}

func TestSmoke(t *testing.T) {
	probeBudget, recoverBudget = 2*time.Millisecond, 10*time.Millisecond
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, sp.Workloads[i].Name, w.name)
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			first, err := runWorkload(w, toyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct || first.Failed != 0 || first.Attempted < 1 {
				t.Errorf("untraced run: correct=%v failed=%d attempted=%d", first.Correct, first.Failed, first.Attempted)
			}
			checkMetrics(t, first.Metrics, sp.EndToEnd)
			for name, m := range first.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}

			again, err := runWorkload(w, toyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			for name := range exactMetrics {
				if first.Metrics[name] != again.Metrics[name] {
					t.Errorf("%s did not repeat for seed 1: %v then %v", name, first.Metrics[name], again.Metrics[name])
				}
			}

			traced, err := runTraced(w, toyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Errorf("traced run: %d of %d failed", traced.Failed, traced.Attempted)
			}
			checkMetrics(t, traced.Metrics, sp.PerLayer)

			wrong := toyConfig(t, 1)
			wrong.corrupt = true
			bad, err := runWorkload(w, wrong)
			if err != nil {
				t.Fatal(err)
			}
			if bad.Correct || bad.Failed == 0 {
				t.Errorf("a wrong oracle digest went unnoticed: correct=%v failed=%d", bad.Correct, bad.Failed)
			}

			a, err := w.setup(toyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer a.close()
			b, err := w.setup(toyConfig(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if reflect.DeepEqual(a.ops, b.ops) && a.facts == b.facts {
				t.Error("seeds 1 and 2 generated the same inputs")
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		b    []float64
		ms   metricSpec
		want string
	}{
		{"same", base, lower, "unchanged"},
		{"slower", scale(1.2), lower, "worse"},
		{"faster", scale(0.8), lower, "better"},
		{"more throughput", scale(1.2), higher, "better"},
		{"less throughput", scale(0.8), higher, "worse"},
		{"within bound", scale(1.05), lower, "unchanged"},
		{"too noisy to tell", noisy, lower, "unresolved"},
		{"exact repeats", base, metricSpec{Name: "def42_peak_tuples", Better: "lower", Bound: 0.1}, "unchanged"},
		{"exact moved", scale(1.001), metricSpec{Name: "def42_peak_tuples", Better: "lower", Bound: 0.1}, "worse"},
	} {
		if got := verdict(base, c.b, c.ms); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
