package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sepdl"
)

// op is one operation of a workload's seeded sequence: a selection query
// pred(args[0], Y)? or a fact to add.
type op struct {
	write bool
	pred  string
	args  []string
	// perPass ops get a per-pass suffix on every constant, so each pass
	// over the sequence writes fresh facts and reads them back; answers
	// are compared with the suffix stripped.
	perPass  bool
	strategy sepdl.Strategy // "" leaves the choice to the engine (Auto)
	text     string         // the query text, without a pass suffix
	body     string         // the HTTP request body, when the transport is HTTP
	want     uint64         // oracle digest of a query's answer rows
}

func queryOp(pred, start string, strategy sepdl.Strategy) op {
	return op{pred: pred, args: []string{start}, strategy: strategy, text: pred + "(" + start + ", Y)?"}
}

func (o *op) queryOpts() []sepdl.QueryOption {
	if o.strategy == "" {
		return nil
	}
	return []sepdl.QueryOption{sepdl.WithStrategy(o.strategy)}
}

// passSuffix names a pass; the warm-up pass is -1.
func passSuffix(pass int) string {
	if pass < 0 {
		return "kw"
	}
	return "k" + strconv.Itoa(pass)
}

// answer is what one executed op reports back to the loop.
type answer struct {
	rows   [][]string
	lat    time.Duration // as the caller saw it: until the rows are in hand
	maxRel int           // Result.Stats.MaxRelationSize, when the transport carries it
	bytes  int           // response bytes (HTTP)
	shed   bool          // refused with 503
	err    error
}

// instance is one set-up system under test plus the inputs generated for
// it. The program only ever sees progText, the facts and the ops.
type instance struct {
	name     string
	progText string
	facts    string // facts the oracle and the layer probes load: every fact an op can reach
	pred     string
	eng      *sepdl.Engine
	ops      []op
	warm     int // untimed ops run at the end of set-up
	clients  int
	// countPasses is how many passes the counts are taken over (0 means
	// 1): def42, allocation and resident memory are measured over this
	// fixed amount of work, so they do not move when the machine, or a
	// change under test, fits more ops into the window.
	countPasses int
	// primaryWrite makes AddFact the op whose latency op_p50/p95 report.
	primaryWrite bool
	// exec runs one op; nil means in-process against eng.
	exec func(ctx context.Context, in *instance, pass int, o *op, tr *tracer, parent, opID int) answer
	// afterWarm runs once the warm-up pass is done, still inside set-up.
	afterWarm func() error
	closeFn   func() error

	dir         string               // data directory of a durable workload
	reopenOpts  []sepdl.EngineOption // how recover_s reopens dir
	diskPerFact float64              // bytes on disk per live fact, after set-up's checkpoint
	acked       atomic.Int64         // facts acknowledged through eng since Open
	userBytes   atomic.Int64         // predicate and argument bytes of those facts
	tr          atomic.Pointer[tracer]
}

// do runs one op over the workload's transport.
func (in *instance) do(ctx context.Context, pass int, o *op, tr *tracer, parent, opID int) answer {
	if in.exec != nil {
		return in.exec(ctx, in, pass, o, tr, parent, opID)
	}
	return execEngine(ctx, in, pass, o, tr, parent, opID)
}

func (in *instance) close() error {
	if in.closeFn != nil {
		return in.closeFn()
	}
	return nil
}

// execEngine is the in-process transport: one call into the engine.
func execEngine(ctx context.Context, in *instance, pass int, o *op, tr *tracer, parent, opID int) answer {
	sfx := ""
	if o.perPass {
		sfx = passSuffix(pass)
	}
	if o.write {
		args := o.args
		if sfx != "" {
			args = make([]string, len(o.args))
			for i, a := range o.args {
				args[i] = a + sfx
			}
		}
		start := time.Now()
		id := tr.begin("sepdl.AddFact", parent, opID)
		err := in.eng.AddFact(o.pred, args...)
		tr.end(id)
		if err == nil {
			in.acked.Add(1)
			n := len(o.pred)
			for _, a := range args {
				n += len(a)
			}
			in.userBytes.Add(int64(n))
		}
		return answer{lat: time.Since(start), err: err}
	}
	q := o.text
	if sfx != "" {
		q = o.pred + "(" + o.args[0] + sfx + ", Y)?"
	}
	start := time.Now()
	id := tr.begin("sepdl.QueryCtx", parent, opID)
	res, err := in.eng.QueryCtx(ctx, q, o.queryOpts()...)
	tr.end(id)
	if err != nil {
		return answer{lat: time.Since(start), err: err}
	}
	rows := res.Rows()
	lat := time.Since(start)
	if sfx != "" {
		for _, r := range rows {
			for i, c := range r {
				r[i] = strings.TrimSuffix(c, sfx)
			}
		}
	}
	return answer{rows: rows, lat: lat, maxRel: res.Stats.MaxRelationSize}
}

// sample is one completed op: when it ended (ns into the window) and how
// long it took.
type sample struct{ end, lat int64 }

type loopResult struct {
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
	queries   []sample
	writes    []sample
	bytes     int64
	sheds     int
	nextPass  int // first pass number no client has started
	// Taken over the counted passes only:
	def42     int64         // Σ MaxRelationSize
	countOps  int           // ops completed when the last client finished them
	countWall time.Duration // and when that was
	alloc     uint64        // TotalAlloc delta up to then
	peakRSS   float64       // bytes up to then: the highest sample of each time slice, median of the slices
	before    sepdl.EngineStats
	after     sepdl.EngineStats
}

func (lr *loopResult) primary(in *instance) []sample {
	if in.primaryWrite {
		return lr.writes
	}
	return lr.queries
}

// runLoop drives the closed loop: in.clients goroutines, each sending its
// next op only when the previous one has answered, walking the op
// sequence pass after pass from pass number firstPass. It stops once
// `window` has elapsed and, with counted, the counted passes are complete.
// An op still outstanding at 4×window is failed and the loop stops.
func runLoop(in *instance, window time.Duration, firstPass int, counted bool, tr *tracer) *loopResult {
	lr := &loopResult{before: in.eng.Stats()}
	ctx, cancel := context.WithTimeout(context.Background(), 4*window)
	defer cancel()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	start := time.Now()

	stopRSS := make(chan struct{})
	rssDone := make(chan []sample)
	go func() {
		var seen []sample // lat holds the resident bytes
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			seen = append(seen, sample{end: time.Since(start).Nanoseconds(), lat: int64(rssBytes())})
			select {
			case <-stopRSS:
				rssDone <- seen
				return
			case <-tick.C:
			}
		}
	}()

	countEnd := firstPass // first pass that is not counted
	if counted {
		countEnd += max(in.countPasses, 1)
	}
	var opsDone atomic.Int64
	var clientsCounted atomic.Int32

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := loopResult{}
			defer func() {
				mu.Lock()
				lr.attempted += local.attempted
				lr.failed += local.failed
				lr.queries = append(lr.queries, local.queries...)
				lr.writes = append(lr.writes, local.writes...)
				lr.def42 += local.def42
				lr.bytes += local.bytes
				lr.sheds += local.sheds
				if lr.firstErr == nil {
					lr.firstErr = local.firstErr
				}
				lr.nextPass = max(lr.nextPass, local.nextPass)
				mu.Unlock()
			}()
			for pass := firstPass; ; pass++ {
				local.nextPass = pass + 1
				if pass == countEnd && counted && int(clientsCounted.Add(1)) == in.clients {
					// The last client is through the counted passes.
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					mu.Lock()
					lr.alloc, lr.countOps, lr.countWall = ms.TotalAlloc-allocBefore, int(opsDone.Load()), time.Since(start)
					mu.Unlock()
				}
				for i := c; i < len(in.ops); i += in.clients {
					if pass >= countEnd && time.Since(start) >= window {
						return
					}
					o := &in.ops[i]
					opID := (pass-firstPass)*len(in.ops) + i
					id := tr.begin("client.op", 0, opID)
					a := in.do(ctx, pass, o, tr, id, opID)
					ok := a.err == nil && !a.shed && (o.write || digest(a.rows) == o.want)
					tr.end(id)
					local.attempted++
					opsDone.Add(1)
					local.bytes += int64(a.bytes)
					if a.shed {
						local.sheds++
					}
					if !ok {
						local.failed++
						if local.firstErr == nil {
							local.firstErr = a.err
							if a.err == nil {
								local.firstErr = fmt.Errorf("op %d (%s %v): answer differs from the oracle", i, o.pred, o.args)
							}
						}
						if ctx.Err() != nil {
							return
						}
						continue
					}
					s := sample{end: time.Since(start).Nanoseconds(), lat: a.lat.Nanoseconds()}
					if o.write {
						local.writes = append(local.writes, s)
					} else {
						local.queries = append(local.queries, s)
						if pass < countEnd {
							local.def42 += int64(a.maxRel)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	lr.wall = time.Since(start)
	close(stopRSS)
	rss := <-rssDone
	if lr.countOps > 0 {
		for len(rss) > 1 && rss[len(rss)-1].end > lr.countWall.Nanoseconds() {
			rss = rss[:len(rss)-1]
		}
		lr.peakRSS = sliced(rss, lr.countWall, func(sorted []float64) float64 { return sorted[len(sorted)-1] })
	}
	lr.after = in.eng.Stats()
	return lr
}

// rssBytes reads the process's resident set from /proc/self/statm.
func rssBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseUint(f[1], 10, 64)
	return pages * uint64(os.Getpagesize())
}

// slices is how many equal time slices a window's samples are cut into.
// A latency percentile or a rate is computed per slice and the median of
// the slices is reported: one noisy second moves one slice, not the
// result.
const slices = 5

func lats(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.lat)
	}
	return out
}

// sliced returns the median over the time slices of f applied to each
// slice's latencies (ns).
func sliced(s []sample, wall time.Duration, f func(sorted []float64) float64) float64 {
	buckets := make([][]float64, slices)
	for _, x := range s {
		b := min(int(x.end*slices/max(wall.Nanoseconds(), 1)), slices-1)
		buckets[b] = append(buckets[b], float64(x.lat))
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, f(sortedCopy(b)))
		}
	}
	return median(per)
}

func slicedQuantile(s []sample, wall time.Duration, q float64) float64 {
	return sliced(s, wall, func(sorted []float64) float64 { return quantile(sorted, q) })
}

// slicedRate is the median over the time slices of ops completed per
// second, counting every op kind.
func slicedRate(lr *loopResult) float64 {
	counts := make([]float64, slices)
	w := max(lr.wall.Nanoseconds(), 1)
	for _, set := range [][]sample{lr.queries, lr.writes} {
		for _, x := range set {
			counts[min(int(x.end*slices/w), slices-1)]++
		}
	}
	per := make([]float64, slices)
	for i, c := range counts {
		per[i] = c / (lr.wall.Seconds() / slices)
	}
	return median(per)
}
