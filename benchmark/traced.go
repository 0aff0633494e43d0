package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sepdl"
	"sepdl/internal/parser"
)

// storeDelta is a stretch of store activity: the durable store's counters
// before and after it, how many ops it served, how many bytes of user
// data (predicate and argument text) it was handed, and how many bytes of
// segment files it published.
type storeDelta struct {
	before, after       sepdl.StoreStats
	ops                 float64
	userBytes, segBytes float64
}

// runTraced is one traced run: the per-layer metrics. The middle half of
// the window is traced and the quarters before and after it are not, all
// on one instance, so the ratio of the traced rate to the mean untraced
// rate is the tracing overhead even on a workload whose ops slow down as
// its database grows. The layer probes follow while the instance is
// still open, then the recovery cycle.
func runTraced(w workload, cfg runConfig) (*runResult, error) {
	in, _, err := prepare(w, cfg, 1)
	if err != nil {
		return nil, err
	}
	defer in.close()
	tr := newTracer()
	before := runLoop(in, cfg.window/4, 0, false, nil)
	in.tr.Store(tr)
	userBytes := in.userBytes.Load()
	watch := watchSegments(in.dir)
	traced := runLoop(in, cfg.window/2, before.nextPass, false, tr)
	segWritten := watch.stop()
	in.tr.Store(nil)
	after := runLoop(in, cfg.window/4, traced.nextPass, false, nil)
	in.tr.Store(tr) // the server probe's handler-side spans

	res := &runResult{Metrics: map[string]metric{}}
	for _, lr := range []*loopResult{before, traced, after} {
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		if lr.firstErr != nil {
			fmt.Fprintf(os.Stderr, "sepmark: %s: first failure: %v\n", w.name, lr.firstErr)
		}
	}
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	rate := func(lr *loopResult) float64 { return ratio(float64(lr.attempted), lr.wall.Seconds()) }
	set("client.trace_overhead_ratio", ratio(rate(traced), (rate(before)+rate(after))/2), "ratio")
	probeDir := filepath.Join(cfg.scratch, "probes")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return nil, err
	}
	p, err := runProbes(in, tr, traced, probeDir, m)
	if err != nil {
		return nil, err
	}

	// The recovered engine answers the sample once more before it closes:
	// on an in-RAM workload that is the only cold read path there is.
	cold := 0.0
	rec, err := measureRecovery(in, cfg, func(e *sepdl.Engine) {
		root := tr.begin("recovered", 0, -1)
		defer tr.end(root)
		for i := range p.sample {
			o := &p.sample[i]
			id := tr.begin("sepdl.QueryCtx/recovered", root, -1-i)
			_, err := e.QueryCtx(context.Background(), o.text, o.queryOpts()...)
			tr.end(id)
			if err == nil {
				cold++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.Attempted += rec.checks
	res.Failed += rec.failed
	res.Correct = res.Failed == 0
	set("wal.recover_ms", float64(rec.stats.WAL.RecoveryNanos)/1e6, "ms")
	set("wal.recovered_records", float64(rec.stats.WAL.RecoveredRecords), "count")

	// A durable workload reports what its traced window did to its own
	// store. An in-RAM workload has none, so its write side is the scratch
	// engine the write-path probe filled, and its read side the recovered
	// engine answering the sample through a quarter-size block cache.
	write, read := p.scratch, storeDelta{after: rec.stats.WAL, ops: cold}
	if in.dir != "" {
		write = storeDelta{traced.before.WAL, traced.after.WAL, float64(traced.attempted),
			float64(in.userBytes.Load() - userBytes), segWritten}
		read = write
	}
	d := func(before, after uint64) float64 { return float64(after - before) }
	set("wal.syncs_per_append", ratio(d(write.before.Syncs, write.after.Syncs), d(write.before.Appends, write.after.Appends)), "ratio")
	set("wal.checkpoints", d(write.before.Checkpoints, write.after.Checkpoints), "count")
	set("segment.builds", d(write.before.Segment.SegmentBuilds, write.after.Segment.SegmentBuilds), "count")
	set("segment.bytes_written_per_user_byte", ratio(write.segBytes, write.userBytes), "ratio")
	rb, ra := read.before.Segment, read.after.Segment
	hits, misses := d(rb.BlockCacheHits, ra.BlockCacheHits), d(rb.BlockCacheMisses, ra.BlockCacheMisses)
	set("segment.block_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("segment.bytes_read_per_op", ratio(d(rb.SegmentBytesRead, ra.SegmentBytesRead), read.ops), "B")
	set("segment.files", float64(ra.SegmentFiles), "count")

	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut, w.name, cfg.seed); err != nil {
			return nil, err
		}
	}
	fmt.Printf("%s: %d ops traced in %.2fs between %d and %d untraced in %.2fs each, %d spans, %d failed\n",
		w.name, traced.attempted, traced.wall.Seconds(), before.attempted, after.attempted, after.wall.Seconds(),
		len(tr.snapshot()), res.Failed)
	return res, nil
}

// writePath measures the engine's write side: AddFact latencies, the
// longest stall, and a forced checkpoint. A workload that writes reports
// its own traced window; every workload also fills a scratch durable
// engine with the probe database fact by fact, which is where the
// checkpoint is timed and where an in-RAM workload's store counters come
// from.
func (p *probes) writePath() error {
	facts, err := parser.Facts(p.in.facts)
	if err != nil {
		return err
	}
	dir := filepath.Join(p.dir, "engine")
	e, err := sepdl.Open(dir, durableOpts(sepdl.WithCheckpointBytes(-1))...)
	if err != nil {
		return err
	}
	defer e.Close()
	if err := e.LoadProgram(p.in.progText); err != nil {
		return err
	}
	addLat := make([]float64, 0, len(facts))
	var aerr error
	p.batch("sepdl.AddFact", func() int {
		args := make([]string, 0, 4)
		for _, f := range facts[:min(len(facts), 20000)] {
			args = args[:0]
			for _, t := range f.Args {
				args = append(args, t.Name)
				p.scratch.userBytes += float64(len(t.Name))
			}
			p.scratch.userBytes += float64(len(f.Pred))
			start := time.Now()
			if err := e.AddFact(f.Pred, args...); err != nil {
				aerr = err
			}
			addLat = append(addLat, float64(time.Since(start).Nanoseconds()))
		}
		return len(addLat)
	})
	if aerr != nil {
		return aerr
	}
	d, err := p.each("sepdl.Checkpoint", 1, func(int) error { return e.Checkpoint() })
	if err != nil {
		return err
	}
	p.set("engine.checkpoint_ms", d[0]/1e6, "ms")
	p.scratch.after = e.Stats().WAL
	p.scratch.ops = float64(len(addLat))
	seg, err := segmentBytes(dir)
	if err != nil {
		return err
	}
	p.scratch.segBytes = float64(seg)
	if len(p.lr.writes) >= 100 {
		addLat = lats(p.lr.writes)
	}
	sorted := sortedCopy(addLat)
	p.set("engine.addfact_us_p50", quantile(sorted, 0.5)/1e3, "us")
	p.set("engine.write_stall_ms_max", quantile(sorted, 1)/1e6, "ms")
	return e.Close()
}

// segmentWatch polls a data directory for new segment files, because the
// store counts segment builds but not their bytes. A segment lives until
// the next checkpoint replaces it, far longer than the polling period.
type segmentWatch struct {
	stopc chan struct{}
	done  chan float64
}

// watchSegments starts watching dir ("" watches nothing).
func watchSegments(dir string) *segmentWatch {
	w := &segmentWatch{stopc: make(chan struct{}), done: make(chan float64, 1)}
	if dir == "" {
		w.done <- 0
		return w
	}
	sizes := func() map[string]int64 {
		out := map[string]int64{}
		names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		for _, n := range names {
			if info, err := os.Stat(n); err == nil {
				out[n] = info.Size()
			}
		}
		return out
	}
	old := sizes()
	go func() {
		seen := map[string]int64{}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			for n, sz := range sizes() {
				if _, was := old[n]; !was {
					seen[n] = max(seen[n], sz)
				}
			}
			select {
			case <-w.stopc:
				total := 0.0
				for _, sz := range seen {
					total += float64(sz)
				}
				w.done <- total
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watch and returns the bytes of the segment files that
// appeared while it ran.
func (w *segmentWatch) stop() float64 {
	close(w.stopc)
	return <-w.done
}
