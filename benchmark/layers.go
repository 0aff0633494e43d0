package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sepdl"
	"sepdl/internal/ast"
	"sepdl/internal/conj"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/keys"
	"sepdl/internal/magic"
	"sepdl/internal/par"
	"sepdl/internal/parser"
	"sepdl/internal/plancache"
	"sepdl/internal/rel"
	"sepdl/internal/segment"
	"sepdl/internal/stats"
	"sepdl/internal/wal"
)

// The layer probes of a traced run. Each per-layer number is measured
// from the benchmark's own files: either by calling a layer's exported
// functions on the workload's generated inputs (program, facts, a sample
// of its ops), every call wrapped in a span, or by differencing the
// engine's counters around the traced window. Nothing here reaches into
// the program under test. Layer names are the repo's package names.

const (
	probeSample = 64     // distinct query ops a probe replays
	probeTuples = 100000 // emissions kept for the rel/eval micro-probes
)

// probeBudget is the wall time one probe may spend; the smoke test
// shortens it.
var probeBudget = 250 * time.Millisecond

// probes carries what the layer probes share.
type probes struct {
	in   *instance
	tr   *tracer
	lr   *loopResult       // the traced window
	root int               // span every probe span hangs under
	m    map[string]metric // per-layer metrics, filled in as probes run
	dir  string            // scratch directory for the storage probes

	prog   *ast.Program
	db     *database.Database // in.facts, in RAM
	sample []op               // distinct query ops, pass suffix already applied
	atoms  []ast.Atom         // sample, parsed

	scratch storeDelta // the scratch durable engine writePath filled
}

func (p *probes) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// each calls f(i) for i = 0..n-1, one span per call, until every index
// ran once or the budget is spent (at least three calls), and returns
// the durations in ns. A probe that fails is reported, not hidden.
func (p *probes) each(name string, n int, f func(i int) error) ([]float64, error) {
	var out []float64
	deadline := time.Now().Add(probeBudget)
	for i := 0; i < n && (i < 3 || time.Now().Before(deadline)); i++ {
		id := p.tr.begin(name, p.root, -1-i)
		start := time.Now()
		err := f(i)
		d := time.Since(start)
		p.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		out = append(out, float64(d.Nanoseconds()))
	}
	return out, nil
}

// batch times one call that does `items` pieces of work under a single
// span (the pieces are too short to time apart) and returns ns per piece.
func (p *probes) batch(name string, f func() (items int)) float64 {
	id := p.tr.begin(name, p.root, -1)
	start := time.Now()
	items := f()
	d := time.Since(start)
	p.tr.end(id)
	return ratio(float64(d.Nanoseconds()), float64(items))
}

// runProbes measures every layer on the workload's own inputs. The
// instance is still open; lr is the traced window.
func runProbes(in *instance, tr *tracer, lr *loopResult, dir string, m map[string]metric) (*probes, error) {
	p := &probes{in: in, tr: tr, lr: lr, m: m, dir: dir}
	p.root = tr.begin("probes", 0, -1)
	defer tr.end(p.root)
	var err error
	if p.prog, err = parser.Program(in.progText); err != nil {
		return nil, err
	}
	facts, err := parser.Facts(in.facts)
	if err != nil {
		return nil, err
	}
	p.db = database.New()
	if err := p.db.Load(facts); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for i := range in.ops {
		o := in.ops[i]
		if o.write || seen[o.text+string(o.strategy)] || len(p.sample) >= probeSample {
			continue
		}
		seen[o.text+string(o.strategy)] = true
		a, err := parser.Query(o.text)
		if err != nil {
			return nil, err
		}
		p.atoms = append(p.atoms, a)
		if o.perPass { // the live engine holds the suffixed facts of pass 0
			o.args = []string{o.args[0] + passSuffix(0)}
			o.text = o.pred + "(" + o.args[0] + ", Y)?"
			o.perPass = false
		}
		p.sample = append(p.sample, o)
	}
	for _, f := range []func() error{
		p.parserLayer, p.engineLayer, p.serverLayer, p.coreLayer, p.evalConjRelLayers,
		p.magicLayer, p.plancacheLayer, p.parLayer, p.storageLayers, p.writePath,
	} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	p.windowCounters()
	return p, nil
}

func (p *probes) parserLayer() error {
	var perr error
	ns := p.batch("parser.Query", func() int {
		n := 0
		for n < 2000 {
			for _, o := range p.sample {
				if _, err := parser.Query(o.text); err != nil {
					perr = err
				}
				n++
			}
		}
		return n
	})
	p.set("parser.query_us", ns/1e3, "us")
	d, err := p.each("parser.Facts", 5, func(int) error {
		_, err := parser.Facts(p.in.facts)
		return err
	})
	if err != nil {
		return err
	}
	p.set("parser.facts_mb_per_s", ratio(float64(len(p.in.facts))/1e6, mean(d)/1e9), "MB/s")
	return perr
}

// engineLayer replays the sample in-process on the live engine, through
// QueryCtx and through Prepared.Run with the same constants.
func (p *probes) engineLayer() error {
	ctx := context.Background()
	eng := p.in.eng
	query, err := p.each("sepdl.QueryCtx", len(p.sample), func(i int) error {
		o := &p.sample[i]
		r, err := eng.QueryCtx(ctx, o.text, o.queryOpts()...)
		if err == nil {
			r.Rows()
		}
		return err
	})
	if err != nil {
		return err
	}
	prepared := map[sepdl.Strategy]*sepdl.Prepared{}
	for i := range p.sample {
		o := &p.sample[i]
		if prepared[o.strategy] == nil {
			if prepared[o.strategy], err = eng.Prepare(o.text, o.queryOpts()...); err != nil {
				return err
			}
		}
	}
	prep, err := p.each("sepdl.Prepared.Run", len(p.sample), func(i int) error {
		o := &p.sample[i]
		r, err := prepared[o.strategy].Run(ctx, o.args[0])
		if err == nil {
			r.Rows()
		}
		return err
	})
	if err != nil {
		return err
	}
	p.set("engine.query_ms_p50", median(query)/1e6, "ms")
	p.set("engine.prepared_ms_p50", median(prep)/1e6, "ms")
	// What QueryCtx spends outside parsing and evaluating: option
	// resolution, plan lookup or compilation, strategy pick.
	n := min(len(query), len(prep))
	p.set("engine.plan_self_us", (mean(query[:n])-mean(prep[:n]))/1e3-p.m["parser.query_us"].Value, "us")
	return nil
}

// serverLayer boots internal/server over the live engine and sends the
// sample over loopback HTTP, each op followed by the same op in-process.
func (p *probes) serverLayer() error {
	stop, url, err := serveHTTP(p.in, p.in.eng)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	stopped := false
	shutdown := func() error {
		if stopped {
			return nil
		}
		stopped = true
		client.CloseIdleConnections()
		return stop()
	}
	defer shutdown()
	post := httpExec(client, url)
	ctx := context.Background()
	var self, handler, transport []float64
	rtt := map[int]float64{} // by op id
	var rows, bytes, sheds, reqs int
	var encode time.Duration
	deadline := time.Now().Add(2 * probeBudget)
	for i := range p.sample {
		if i >= 3 && time.Now().After(deadline) {
			break
		}
		o := p.sample[i]
		o.body = requestBody(&o)
		id := p.tr.begin("client.http", p.root, -1-i)
		a := post(ctx, p.in, 0, &o, p.tr, id, -1-i)
		p.tr.end(id)
		reqs++
		if a.shed {
			sheds++
			continue
		}
		if a.err != nil {
			return fmt.Errorf("probe client.http: %w", a.err)
		}
		start := time.Now()
		r, err := p.in.eng.QueryCtx(ctx, o.text, o.queryOpts()...)
		if err != nil {
			return err
		}
		out := r.Rows()
		inproc := time.Since(start)
		self = append(self, float64((a.lat - inproc).Nanoseconds()))
		rtt[-1-i] = float64(a.lat.Nanoseconds())
		bytes += a.bytes

		// The reply document, encoded as the server encodes it.
		eid := p.tr.begin("json.Encode", p.root, -1-i)
		start = time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetEscapeHTML(false)
		err = enc.Encode(struct {
			Columns []string     `json:"columns"`
			Rows    [][]string   `json:"rows"`
			Stats   *sepdl.Stats `json:"stats"`
		}{r.Columns, out, &r.Stats})
		encode += time.Since(start)
		p.tr.end(eid)
		if err != nil {
			return err
		}
		rows += len(out)
	}
	// Once the server has shut down every handler has returned, so every
	// handler-side span is closed.
	if err := shutdown(); err != nil {
		return err
	}
	for _, s := range p.tr.snapshot() {
		if s.Name == "server.ServeHTTP" && s.OpID < 0 && s.End > 0 {
			if r, ok := rtt[s.OpID]; ok {
				handler = append(handler, float64(s.End-s.Start))
				transport = append(transport, r-float64(s.End-s.Start))
			}
		}
	}
	p.set("server.self_ms_p50", median(self)/1e6, "ms")
	p.set("server.handler_ms_p50", median(handler)/1e6, "ms")
	p.set("server.transport_ms_p50", median(transport)/1e6, "ms")
	p.set("server.encode_us_per_row", ratio(float64(encode.Nanoseconds())/1e3, float64(rows)), "us")
	p.set("server.response_bytes_per_op", ratio(float64(bytes), float64(reqs-sheds)), "B")
	if p.in.exec != nil { // the traced window went through the server too
		sheds, reqs = sheds+p.lr.sheds, reqs+p.lr.attempted
	}
	p.set("server.shed_ratio", ratio(float64(sheds), float64(reqs)), "ratio")
	return nil
}

// coreLayer: the Definition 2.4 test and the Figure 2 evaluation, called
// directly on a fresh snapshot per op as the engine does.
func (p *probes) coreLayer() error {
	var an *core.Analysis
	d, err := p.each("core.Analyze", 200, func(int) (err error) {
		an, err = core.Analyze(p.prog, p.in.pred)
		return err
	})
	if err != nil {
		return err
	}
	p.set("core.analyze_us", mean(d)/1e3, "us")
	var iters, inserted, peak float64
	d, err = p.each("core.Answer", len(p.atoms), func(i int) error {
		c := stats.New()
		_, err := core.Answer(p.prog, p.db.Snapshot(), p.atoms[i], core.EvalOptions{Collector: c, Analysis: an})
		_, size := c.MaxRelation()
		iters, inserted, peak = iters+float64(c.Iterations), inserted+float64(c.Inserted), peak+float64(size)
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(d))
	p.set("core.answer_ms_p50", median(d)/1e6, "ms")
	p.set("core.iterations_per_op", iters/n, "count")
	p.set("core.inserted_per_op", inserted/n, "count")
	p.set("core.def42_peak_tuples", peak/n, "tuples")
	return nil
}

// evalConjRelLayers runs the semi-naive fixpoint over the probe
// database, then replays every rule body over the fixpoint through conj.
// For linear rules under semi-naive evaluation each body binding is
// produced in exactly one round, so the bindings of that replay are the
// fixpoint's emissions: their head tuples, duplicates included, drive the
// RoundSink and rel probes at the workload's own duplicate share.
func (p *probes) evalConjRelLayers() error {
	var view *database.Database
	var iters, inserted float64
	var peakBytes int64
	d, err := p.each("eval.Run", 5, func(int) (err error) {
		c := stats.New()
		view, err = eval.Run(p.prog, p.db.Snapshot(), eval.Options{Collector: c})
		iters, inserted = iters+float64(c.Iterations), inserted+float64(c.Inserted)
		peakBytes = max(peakBytes, c.PeakIntermediate())
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(d))
	p.set("eval.run_ms_p50", median(d)/1e6, "ms")
	p.set("eval.iterations_per_op", iters/n, "count")
	p.set("eval.inserted_per_op", inserted/n, "count")
	p.set("eval.peak_intermediate_kb", float64(peakBytes)/1024, "KiB")

	intern := p.db.Syms.Intern
	plans := make([]*conj.Plan, len(p.prog.Rules))
	d, err = p.each("conj.Compile", 200, func(int) error {
		for i, r := range p.prog.Rules {
			pl, err := conj.Compile(r.Body, nil, intern)
			if err != nil {
				return err
			}
			plans[i] = pl
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("conj.compile_us", mean(d)/1e3, "us")

	src := conj.DBSource(view.Relation)
	var emitted []rel.Tuple
	bindings := 0
	var perr error
	ns := p.batch("conj.Stream.Next", func() int {
		for i, r := range p.prog.Rules {
			proj, err := conj.NewProjector(r.Head, plans[i], intern)
			if err != nil {
				perr = err
				return 1
			}
			s := plans[i].Stream(src, nil)
			for b, ok := s.Next(); ok; b, ok = s.Next() {
				bindings++
				if r.Head.Pred == p.in.pred && len(emitted) < probeTuples {
					emitted = append(emitted, proj.Tuple(b, make(rel.Tuple, proj.Arity())))
				}
			}
		}
		return bindings
	})
	if perr != nil {
		return perr
	}
	p.set("conj.stream_next_ns", ns, "ns")
	p.set("conj.bindings_per_op", float64(bindings), "count")

	total := view.Relation(p.in.pred)
	if total == nil || len(emitted) == 0 {
		return fmt.Errorf("probe eval: %s derived nothing over the probe database", p.in.pred)
	}
	sink := eval.NewRoundSink(rel.New(total.Arity()), false)
	ns = p.batch("eval.RoundSink.Add", func() int {
		for _, t := range emitted {
			sink.Add(t)
		}
		return len(emitted)
	})
	p.set("eval.roundsink_add_ns", ns, "ns")
	p.set("eval.roundsink_new_ratio", ratio(float64(sink.Delta().Len()), float64(sink.Emitted())), "ratio")

	fresh, added := rel.New(total.Arity()), 0
	ns = p.batch("rel.Relation.Insert", func() int {
		for _, t := range emitted {
			if fresh.Insert(t) {
				added++
			}
		}
		return len(emitted)
	})
	p.set("rel.insert_ns", ns, "ns")
	p.set("rel.insert_new_ratio", ratio(float64(added), float64(len(emitted))), "ratio")
	ns = p.batch("rel.Relation.Contains", func() int {
		for _, t := range emitted {
			total.Contains(t)
		}
		return len(emitted)
	})
	p.set("rel.contains_ns", ns, "ns")

	_, big := p.bigRelation()
	rows := big.Rows()
	idx := big.Snapshot().Index([]int{0})
	ns = p.batch("rel.Index.Scan", func() int {
		for _, t := range rows {
			sc := idx.Scan(t[:1])
			for _, ok := sc.Next(); ok; _, ok = sc.Next() {
			}
		}
		return len(rows)
	})
	p.set("rel.index_scan_ns", ns, "ns")
	d, err = p.each("database.Snapshot", 200, func(int) error {
		p.db.Snapshot()
		return nil
	})
	p.set("rel.snapshot_us", mean(d)/1e3, "us")
	return err
}

// bigRelation is the largest base relation of the probe database.
func (p *probes) bigRelation() (pred string, big *rel.Relation) {
	for _, name := range p.db.Preds() {
		if r := p.db.Relation(name); big == nil || r.Len() > big.Len() {
			pred, big = name, r
		}
	}
	return pred, big
}

func (p *probes) magicLayer() error {
	d, err := p.each("magic.Rewrite", len(p.atoms), func(i int) error {
		_, _, err := magic.Rewrite(p.prog, p.atoms[i])
		return err
	})
	if err != nil {
		return err
	}
	p.set("magic.rewrite_us", mean(d)/1e3, "us")
	var peak float64
	d, err = p.each("magic.Answer", len(p.atoms), func(i int) error {
		c := stats.New()
		_, err := magic.Answer(p.prog, p.db.Snapshot(), p.atoms[i], magic.Options{Collector: c})
		_, size := c.MaxRelation()
		peak += float64(size)
		return err
	})
	if err != nil {
		return err
	}
	p.set("magic.answer_ms_p50", median(d)/1e6, "ms")
	p.set("magic.def42_peak_tuples", peak/float64(len(d)), "tuples")
	return nil
}

// plancacheLayer times the closure cache directly, with closures the
// size of the workload's mean answer.
func (p *probes) plancacheLayer() error {
	rowsPerOp := 1
	if r, err := p.in.eng.Query(p.sample[0].text, p.sample[0].queryOpts()...); err == nil {
		rowsPerOp = max(r.Len(), 1)
	}
	closure := rel.New(1)
	for i := 0; i < rowsPerOp; i++ {
		closure.Insert(rel.Tuple{rel.Value(i)})
	}
	const entries = 2000
	c := plancache.NewClosures(0)
	key := func(i int) plancache.ClosureKey {
		return plancache.ClosureKey{
			Scope: plancache.Scope{ProgRev: 1, DBRev: 1, Pred: p.in.pred},
			Class: "1", Start: plancache.EncodeStart(rel.Tuple{rel.Value(i)}),
		}
	}
	p.set("plancache.put_ns", p.batch("plancache.Closures.Put", func() int {
		for i := 0; i < entries; i++ {
			c.Put(key(i), closure)
		}
		return entries
	}), "ns")
	missing := 0
	p.set("plancache.get_ns", p.batch("plancache.Closures.Get", func() int {
		for i := 0; i < entries; i++ {
			if c.Get(key(i)) == nil {
				missing++
			}
		}
		return entries
	}), "ns")
	if missing > 0 {
		return fmt.Errorf("probe plancache: %d of %d entries missing", missing, entries)
	}
	return nil
}

// parLayer runs the sample on two in-RAM engines that differ only in
// WithParallelism: 1 against the default.
func (p *probes) parLayer() error {
	run := func(name string, opts ...sepdl.EngineOption) (float64, error) {
		opts = append(opts, sepdl.WithPlanCache(false), sepdl.WithClosureCache(-1))
		e, err := newRAMEngine(p.in.progText, p.in.facts, opts...)
		if err != nil {
			return 0, err
		}
		// p.atoms, not p.sample: these engines hold the unsuffixed facts.
		d, err := p.each(name, len(p.atoms), func(i int) error {
			_, err := e.Query(p.atoms[i].String()+"?", p.sample[i].queryOpts()...)
			return err
		})
		return mean(d), err
	}
	seq, err := run("sepdl.Query/parallelism=1", sepdl.WithParallelism(1))
	if err != nil {
		return err
	}
	def, err := run("sepdl.Query/parallelism=default")
	if err != nil {
		return err
	}
	p.set("par.speedup", ratio(seq, def), "ratio")
	p.set("par.workers", float64(par.Degree(0)), "count")
	return nil
}

// nopSink discards what a fresh log replays (nothing).
type nopSink struct{}

func (nopSink) AddFact(string, []string) error { return nil }
func (nopSink) LoadFacts(string) error         { return nil }
func (nopSink) LoadProgram(string) error       { return nil }
func (nopSink) ClearProgram() error            { return nil }

// storageLayers calls wal, segment and keys directly on the probe
// database: appends with and without fsync, one segment build, prefix
// scans through a block cache a quarter of the file, the overlay∪cold
// merge cursor, and the key codec.
func (p *probes) storageLayers() error {
	bigPred, big := p.bigRelation()
	rows := big.Rows()
	syms := p.db.Syms
	args := make([][]string, len(rows))
	userBytes := 0
	for i, t := range rows {
		for _, v := range t {
			args[i] = append(args[i], syms.Name(v))
			userBytes += len(syms.Name(v))
		}
		userBytes += len(bigPred)
	}

	appendAll := func(name string, noSync bool, n int) (float64, database.StoreStats, error) {
		st, err := wal.Open(filepath.Join(p.dir, name), wal.Options{NoSync: noSync, CheckpointBytes: -1})
		if err != nil {
			return 0, database.StoreStats{}, err
		}
		defer st.Close()
		if err := st.Recover(nopSink{}); err != nil {
			return 0, database.StoreStats{}, err
		}
		var aerr error
		ns := p.batch("wal.Store.AppendFact/"+name, func() int {
			for i := 0; i < n; i++ {
				if err := st.AppendFact(bigPred, args[i%len(args)]); err != nil {
					aerr = err
				}
			}
			return n
		})
		return ns, st.Stats(), aerr
	}
	ns, st, err := appendAll("nosync", true, len(args))
	if err != nil {
		return err
	}
	p.set("wal.append_us", ns/1e3, "us")
	p.set("wal.bytes_per_user_byte", ratio(float64(st.BytesAppended), float64(userBytes)), "ratio")
	if ns, _, err = appendAll("fsync", false, 32); err != nil {
		return err
	}
	p.set("wal.append_fsync_us", ns/1e3, "us")

	path := filepath.Join(p.dir, "probe.seg")
	d, err := p.each("segment.Build", 3, func(int) error { return segment.Build(path, p.db, 0) })
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.set("segment.build_mb_per_s", ratio(float64(info.Size())/1e6, median(d)/1e9), "MB/s")
	cache := segment.NewCache(max(info.Size()/4, 1))
	set, err := segment.Open(path, cache)
	if err != nil {
		return err
	}
	defer set.Close()
	tbl, arity, ok := set.Table(bigPred)
	if !ok {
		return fmt.Errorf("probe segment: %s missing from %s", bigPred, path)
	}
	drained := 0
	ns = p.batch("segment.Table.Scan", func() int {
		for _, t := range rows {
			cur := tbl.Scan(t[:1])
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				drained++
			}
		}
		return len(rows)
	})
	_, misses, _ := cache.Stats()
	p.set("segment.scan_us_per_probe", ns/1e3, "us")
	p.set("segment.blocks_read_per_probe", ratio(float64(misses), float64(len(rows))), "count")

	// A cold relation with a small overlay on top, probed by its leading
	// column: the merge cursor the cold tier serves every bound-prefix
	// lookup through.
	cold := rel.NewCold(arity, tbl)
	for i := 0; i < min(len(rows), 64); i++ {
		t := rows[i].Clone()
		t[arity-1] = syms.Intern(fmt.Sprintf("overlay%d", i))
		cold.Insert(t)
	}
	idx := cold.Index([]int{0})
	p.set("rel.cold_cursor_next_ns", p.batch("rel.Index.Scan/cold", func() int {
		n := 0
		for _, t := range rows {
			sc := idx.Scan(t[:1])
			for _, ok := sc.Next(); ok; _, ok = sc.Next() {
				n++
			}
		}
		return n
	}), "ns")

	buf := make([]byte, 0, arity*keys.Width)
	p.set("keys.encode_ns", p.batch("keys.AppendTuple", func() int {
		for _, t := range rows {
			buf = keys.AppendTuple(buf[:0], t)
		}
		return len(rows)
	}), "ns")
	var kerr error
	p.set("keys.decode_ns", p.batch("keys.DecodeTuple", func() int {
		for range rows {
			if _, err := keys.DecodeTuple(buf, arity); err != nil {
				kerr = err
			}
		}
		return len(rows)
	}), "ns")
	return kerr
}

// windowCounters turns the engine's counters, differenced around the
// traced window, and the window's own samples into metrics.
func (p *probes) windowCounters() {
	lr := p.lr
	b, a := lr.before, lr.after
	d := func(before, after uint64) float64 { return float64(after - before) }
	hits, misses := d(b.PlanCacheHits, a.PlanCacheHits), d(b.PlanCacheMisses, a.PlanCacheMisses)
	p.set("engine.plan_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	p.set("engine.overloads", d(b.Overloads, a.Overloads), "count")
	hits, misses = d(b.ClosureCacheHits, a.ClosureCacheHits), d(b.ClosureCacheMisses, a.ClosureCacheMisses)
	p.set("plancache.closure_hit_ratio", ratio(hits, hits+misses), "ratio")

	all := sortedCopy(append(lats(lr.queries), lats(lr.writes)...))
	p.set("client.op_p99_ms", quantile(all, 0.99)/1e6, "ms")
	p.set("client.op_max_ms", quantile(all, 1)/1e6, "ms")
	p.set("client.samples", float64(len(all)), "count")
	p.set("client.fail_ratio", ratio(float64(lr.failed), float64(lr.attempted)), "ratio")
	self := p.tr.selfTimes()["client.op"]
	p.set("client.self_us_per_op", mean(self)/1e3, "us")
}
