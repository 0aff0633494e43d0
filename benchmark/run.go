package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"sepdl"
)

// metric is one reported number. The JSON shape is the driver's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the driver's four keys.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how often a run sets the workload up; setup_s is the
// median. The last set-up is the one the timed window runs on.
const setupRepeats = 3

// recover_s is the median of at least recoverRepeats timed
// reopen-and-first-query cycles; a small database that reopens in under a
// millisecond gets more of them, until recoverBudget is spent (the smoke
// test shortens it).
const (
	recoverRepeats = 9
	recoverMax     = 400
)

var recoverBudget = 500 * time.Millisecond

// runConfig is what one run needs beyond the workload.
type runConfig struct {
	seed    int64
	window  time.Duration
	sz      sizes
	scratch string // directory this run may fill and must leave empty
	// traceOut, when set, is where a traced run writes its spans.
	traceOut string
	// corrupt flips one oracle digest, to prove the answer check bites.
	corrupt bool
}

// setUp builds the workload once and times everything before the timed
// window: generating the data, loading the program, opening or booting,
// and the warm-up ops.
func setUp(w workload, cfg runConfig, n int) (*instance, time.Duration, error) {
	env := cfg
	env.scratch = filepath.Join(cfg.scratch, fmt.Sprintf("setup%d", n))
	start := time.Now()
	in, err := w.setup(env)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	err = warmUp(in)
	if err == nil && in.afterWarm != nil {
		err = in.afterWarm()
	}
	if err != nil {
		in.close()
		return nil, 0, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return in, time.Since(start), nil
}

// warmUp runs the first in.warm ops untimed and unchecked (pass -1), one
// share per client.
func warmUp(in *instance) error {
	var wg sync.WaitGroup
	errs := make([]error, in.clients)
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < min(in.warm, len(in.ops)); i += in.clients {
				if a := in.do(context.Background(), -1, &in.ops[i], nil, 0, 0); a.err != nil {
					errs[c] = a.err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// prepare sets the workload up setupRepeats times (once for a traced
// run, which does not report setup_s), computes the oracle, and returns
// the instance ready for its timed window.
func prepare(w workload, cfg runConfig, repeats int) (*instance, float64, error) {
	var in *instance
	var times []float64
	for n := 0; n < repeats; n++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, 0, err
			}
			if err := os.RemoveAll(cfg.scratch); err != nil {
				return nil, 0, err
			}
		}
		next, d, err := setUp(w, cfg, n)
		if err != nil {
			return nil, 0, err
		}
		in = next
		times = append(times, d.Seconds())
	}
	if err := setOracle(in); err != nil {
		in.close()
		return nil, 0, err
	}
	if cfg.corrupt {
		for i := range in.ops {
			if !in.ops[i].write {
				in.ops[i].want ^= 1
				break
			}
		}
	}
	// The oracle's garbage and the discarded set-ups should not count
	// against the window's peak RSS.
	debug.FreeOSMemory()
	return in, median(times), nil
}

// runWorkload is one untraced run: the end-to-end metrics.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	in, setupS, err := prepare(w, cfg, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer in.close()
	lr := runLoop(in, cfg.window, 0, true, nil)
	res := &runResult{Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metric{}}
	if lr.firstErr != nil {
		fmt.Fprintf(os.Stderr, "sepmark: %s: first failure: %v\n", w.name, lr.firstErr)
	}
	def42 := lr.def42
	if in.exec != nil {
		// The wire format carries no relation sizes, so the first pass is
		// replayed in-process, untimed, against the same warm engine.
		if def42, err = replayDef42(in); err != nil {
			return nil, err
		}
	}
	rec, err := measureRecovery(in, cfg, nil)
	if err != nil {
		return nil, err
	}
	res.Attempted += rec.checks
	res.Failed += rec.failed

	prim := lr.primary(in)
	m := res.Metrics
	m["setup_s"] = metric{setupS, "s"}
	m["ops_per_s"] = metric{slicedRate(lr), "1/s"}
	m["op_p50_ms"] = metric{slicedQuantile(prim, lr.wall, 0.50) / 1e6, "ms"}
	m["op_p95_ms"] = metric{slicedQuantile(prim, lr.wall, 0.95) / 1e6, "ms"}
	m["read_p95_ms"] = metric{slicedQuantile(lr.queries, lr.wall, 0.95) / 1e6, "ms"}
	m["def42_peak_tuples"] = metric{float64(def42), "tuples"}
	m["alloc_kb_per_op"] = metric{ratio(float64(lr.alloc)/1024, float64(lr.countOps)), "KiB"}
	m["peak_rss_mb"] = metric{float64(lr.peakRSS) / (1 << 20), "MiB"}
	m["recover_s"] = metric{rec.recoverS, "s"}
	m["disk_bytes_per_fact"] = metric{rec.diskPerFact, "B"}
	res.Correct = res.Failed == 0
	fmt.Printf("%s: %d timed ops in %.2fs, %d primary-op latency samples, %d read samples, %d failed\n",
		w.name, lr.attempted, lr.wall.Seconds(), len(prim), len(lr.queries), res.Failed)
	return res, nil
}

// replayDef42 sums Result.Stats.MaxRelationSize over the first pass's
// queries, in-process, evaluating each distinct query once.
func replayDef42(in *instance) (int64, error) {
	var sum int64
	size := map[string]int64{}
	for i := range in.ops {
		o := &in.ops[i]
		if o.write {
			continue
		}
		if _, ok := size[o.text]; !ok {
			r, err := in.eng.Query(o.text, o.queryOpts()...)
			if err != nil {
				return 0, err
			}
			size[o.text] = int64(r.Stats.MaxRelationSize)
		}
		sum += size[o.text]
	}
	return sum, nil
}

// recovery is what closing the workload's database and opening it again
// shows.
type recovery struct {
	recoverS    float64
	diskPerFact float64
	checks      int // answer and fact-count checks made
	failed      int
	stats       sepdl.EngineStats // of the last reopened engine, after sample ran
}

// measureRecovery closes the workload's durable directory and reopens it
// again and again, timing Open until a first query has answered.
// An in-RAM workload has no directory, so its database is first written
// through the same durable path (Open, LoadFacts, Checkpoint) into one.
// The reopened engine must hold every acknowledged fact and answer as the
// oracle does. sample, when set, runs on the last
// reopened engine before it closes (the traced run probes it).
func measureRecovery(in *instance, cfg runConfig, sample func(e *sepdl.Engine)) (*recovery, error) {
	rec := &recovery{diskPerFact: in.diskPerFact}
	dir, opts := in.dir, in.reopenOpts
	acked := in.acked.Load()
	if dir == "" {
		dir = filepath.Join(cfg.scratch, "persist")
		n, err := persist(dir, in.progText, in.facts)
		if err != nil {
			return nil, err
		}
		acked = int64(n)
		total, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		rec.diskPerFact = ratio(float64(total), float64(n))
		seg, err := segmentBytes(dir)
		if err != nil {
			return nil, err
		}
		opts = durableOpts(sepdl.WithBlockCacheBytes(max(seg/4, 1)), sepdl.WithCheckpointBytes(-1))
	} else if err := in.eng.Close(); err != nil {
		return nil, err
	}
	// Each cycle answers the next of the first few queries, so the median
	// does not hang on how much one seed's first query happens to reach.
	var queries []*op
	for i := range in.ops {
		if !in.ops[i].write && len(queries) < 8 {
			queries = append(queries, &in.ops[i])
		}
	}
	var times []float64
	began := time.Now()
	last := func(n int) bool {
		return n+1 >= recoverMax || (n+1 >= recoverRepeats && time.Since(began) >= recoverBudget)
	}
	for n := 0; ; n++ {
		q := queries[n%len(queries)]
		start := time.Now()
		e, err := sepdl.Open(dir, opts...)
		if err != nil {
			return nil, fmt.Errorf("reopening %s: %w", dir, err)
		}
		a := execEngine(context.Background(), &instance{eng: e}, 0, q, nil, 0, 0)
		times = append(times, time.Since(start).Seconds())
		rec.checks++
		if a.err != nil || digest(a.rows) != q.want {
			rec.failed++
			fmt.Fprintf(os.Stderr, "sepmark: %s: %s %v after recovery: err=%v, answer matches=%v\n",
				in.name, q.pred, q.args, a.err, a.err == nil && digest(a.rows) == q.want)
		}
		if n == 0 {
			rec.checks++
			if got := int64(e.NumFacts()); got != acked {
				rec.failed++
				fmt.Fprintf(os.Stderr, "sepmark: %s: recovered %d facts, %d were acknowledged\n", in.name, got, acked)
			}
		}
		done := last(n)
		if done {
			if sample != nil {
				sample(e)
			}
			rec.stats = e.Stats()
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	rec.recoverS = median(times)
	return rec, nil
}

// persist writes prog and facts through the durable path into dir and
// returns how many facts it holds after the final checkpoint.
func persist(dir, prog, facts string) (int, error) {
	e, err := sepdl.Open(dir, durableOpts(sepdl.WithCheckpointBytes(-1))...)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	if err := e.LoadProgram(prog); err != nil {
		return 0, err
	}
	if err := e.LoadFacts(facts); err != nil {
		return 0, err
	}
	if err := e.Checkpoint(); err != nil {
		return 0, err
	}
	return e.NumFacts(), e.Close()
}

// environment is the part of a result that must match before two results
// may be compared: it does not depend on the commit under test.
type environment struct {
	Sizes      sizes  `json:"sizes"`
	Seconds    int    `json:"run_seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentEnv(sz sizes, seconds int) environment {
	return environment{Sizes: sz, Seconds: seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}
