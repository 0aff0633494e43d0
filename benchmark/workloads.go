package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sepdl"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/server"
)

// sizes fixes how big each workload's inputs are. fullSizes is what the
// benchmark measures; the smoke test swaps in toySizes. Every field is
// recorded in the results' env block, and compare refuses results whose
// sizes differ.
type sizes struct {
	ServePeople  int     `json:"serve_people"`  // persons and goods in RandomBuysDB
	ServeDensity float64 `json:"serve_density"` // edges per node of friend/cheaper
	ServeOps     int     `json:"serve_ops"`     // ops per pass
	ServeZipf    float64 `json:"serve_zipf"`    // start persons are drawn with P(rank k) ∝ (ServeZipfV+k)^-ServeZipf
	ServeZipfV   float64 `json:"serve_zipf_v"`

	SepChain int `json:"sep_chain"` // length n of the Example12DB chains
	SepExtra int `json:"sep_extra"` // random extra friend and cheaper edges
	SepOps   int `json:"sep_ops"`

	DenseNodes int `json:"dense_nodes"`
	DenseEdges int `json:"dense_edges"`
	DenseOps   int `json:"dense_ops"`

	IngestOps        int   `json:"ingest_ops"`       // ops per pass: 90 % AddFact, 10 % reads
	IngestChainMax   int   `json:"ingest_chain_max"` // longest chain, in nodes
	IngestMemtable   int64 `json:"ingest_memtable_bytes"`
	IngestCheckpoint int64 `json:"ingest_checkpoint_bytes"`

	ColdClusters int     `json:"cold_clusters"` // independent Example12DB instances
	ColdChain    int     `json:"cold_chain"`    // chain length inside one cluster
	ColdOps      int     `json:"cold_ops"`
	ColdZipf     float64 `json:"cold_zipf"` // cluster k is drawn with P(k) ∝ (ColdZipfV+k)^-ColdZipf
	ColdZipfV    float64 `json:"cold_zipf_v"`
	ColdCacheDiv int64   `json:"cold_cache_div"` // block cache = segment bytes / this
}

var fullSizes = sizes{
	ServePeople: 2000, ServeDensity: 0.4, ServeOps: 8000, ServeZipf: 1.1, ServeZipfV: 100,
	SepChain: 96, SepExtra: 24, SepOps: 16000,
	DenseNodes: 72, DenseEdges: 576, DenseOps: 400,
	IngestOps: 12000, IngestChainMax: 32, IngestMemtable: 256 << 10, IngestCheckpoint: 1 << 20,
	ColdClusters: 12000, ColdChain: 8, ColdOps: 16000, ColdZipf: 1.2, ColdZipfV: 8, ColdCacheDiv: 4,
}

var toySizes = sizes{
	ServePeople: 60, ServeDensity: 0.4, ServeOps: 40, ServeZipf: 1.1, ServeZipfV: 4,
	SepChain: 12, SepExtra: 4, SepOps: 20,
	DenseNodes: 12, DenseEdges: 40, DenseOps: 10,
	IngestOps: 200, IngestChainMax: 8, IngestMemtable: 1 << 10, IngestCheckpoint: 2 << 10,
	ColdClusters: 300, ColdChain: 4, ColdOps: 60, ColdZipf: 1.2, ColdZipfV: 8, ColdCacheDiv: 4,
}

type workload struct {
	name  string
	setup func(cfg runConfig) (*instance, error) // cfg.scratch is this set-up's own
}

// workloads lists the five workloads in the order `all` runs them. The
// names are fixed: later issues cite them.
var workloads = []workload{
	{"serve_point", setupServePoint},
	{"fixpoint_separable", setupFixpointSeparable},
	{"fixpoint_dense", setupFixpointDense},
	{"durable_ingest", setupDurableIngest},
	{"cold_query", setupColdQuery},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const pathProgram = "path(X, Y) :- edge(X, W) & path(W, Y).\npath(X, Y) :- edge(X, Y).\n"

func factsText(db *database.Database) (string, error) {
	var b strings.Builder
	if err := db.WriteFacts(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// newRAMEngine loads prog and facts into a fresh in-RAM engine.
func newRAMEngine(prog, facts string, opts ...sepdl.EngineOption) (*sepdl.Engine, error) {
	e := sepdl.New(opts...)
	if err := e.LoadProgram(prog); err != nil {
		return nil, err
	}
	if err := e.LoadFacts(facts); err != nil {
		return nil, err
	}
	return e, nil
}

// setupServePoint: paper Example 1.2 over a random buys database, served
// by internal/server on a loopback listener; nproc keep-alive clients,
// Zipf-distributed start persons, Auto strategy, both caches on.
func setupServePoint(env runConfig) (*instance, error) {
	sz := env.sz
	facts, err := factsText(datagen.RandomBuysDB(sz.ServePeople, sz.ServeDensity, env.seed))
	if err != nil {
		return nil, err
	}
	in := &instance{
		name: "serve_point", progText: datagen.Example12Program().String(), facts: facts, pred: "buys",
		clients: runtime.GOMAXPROCS(0), warm: sz.ServeOps / 8,
	}
	if in.eng, err = newRAMEngine(in.progText, facts); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.seed))
	zipf := rand.NewZipf(rng, sz.ServeZipf, sz.ServeZipfV, uint64(sz.ServePeople-1))
	perm := rng.Perm(sz.ServePeople)
	for i := 0; i < sz.ServeOps; i++ {
		o := queryOp("buys", datagen.Name("p", 1+perm[zipf.Uint64()]), "")
		o.body = requestBody(&o)
		in.ops = append(in.ops, o)
	}
	stop, url, err := serveHTTP(in, in.eng)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: in.clients}}
	in.exec = httpExec(client, url)
	in.closeFn = func() error {
		client.CloseIdleConnections()
		return stop()
	}
	return in, nil
}

// requestBody is the /v1/query document for a query op.
func requestBody(o *op) string {
	body, _ := json.Marshal(struct {
		Query    string `json:"query"`
		Strategy string `json:"strategy,omitempty"`
	}{o.text, string(o.strategy)})
	return string(body)
}

// Headers a traced client sets so the handler-side span can name its
// parent and its operation.
const (
	spanHeader = "X-Sepmark-Span"
	opHeader   = "X-Sepmark-Op"
)

// serveHTTP boots internal/server over eng on a loopback TCP listener.
// The handler is wrapped by the harness so that a traced request gets a
// server.ServeHTTP span; an untraced request passes straight through.
func serveHTTP(in *instance, eng *sepdl.Engine) (stop func() error, url string, err error) {
	srv := server.New(eng, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := in.tr.Load()
		parent := r.Header.Get(spanHeader)
		if tr == nil || parent == "" {
			srv.ServeHTTP(w, r)
			return
		}
		p, _ := strconv.Atoi(parent)
		o, _ := strconv.Atoi(r.Header.Get(opHeader))
		id := tr.begin("server.ServeHTTP", p, o)
		srv.ServeHTTP(w, r)
		tr.end(id)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	// Shutdown, not Close: it returns only when every handler has, which
	// is what lets a traced run read the handler-side spans afterwards.
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done
		srv.Close()
		return err
	}
	return stop, "http://" + ln.Addr().String() + "/v1/query", nil
}

// httpExec is the HTTP transport: POST the op's body, read the whole
// reply (that is where the caller's latency ends), then decode the rows
// for the answer check.
func httpExec(client *http.Client, url string) func(context.Context, *instance, int, *op, *tracer, int, int) answer {
	return func(ctx context.Context, _ *instance, _ int, o *op, tr *tracer, parent, opID int) answer {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(o.body))
		if err != nil {
			return answer{err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		if tr != nil {
			req.Header.Set(spanHeader, strconv.Itoa(parent))
			req.Header.Set(opHeader, strconv.Itoa(opID))
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return answer{lat: time.Since(start), err: err}
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		a := answer{lat: time.Since(start), bytes: len(body), err: err}
		if err != nil {
			return a
		}
		if resp.StatusCode != http.StatusOK {
			a.shed = resp.StatusCode == http.StatusServiceUnavailable
			a.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
			return a
		}
		var doc struct {
			Rows [][]string `json:"rows"`
		}
		if a.err = json.Unmarshal(body, &doc); a.err == nil {
			a.rows = doc.Rows
		}
		return a
	}
}

// setupFixpointSeparable: the paper's headline case. Example 1.2 over an
// Example12DB(n) chain pair plus random extra edges, in-process, one
// client, caches off, Separable forced, start constants uniform over the
// first half of the friend chain.
func setupFixpointSeparable(env runConfig) (*instance, error) {
	sz := env.sz
	rng := rand.New(rand.NewSource(env.seed))
	db := datagen.Example12DB(sz.SepChain)
	for i := 0; i < sz.SepExtra; i++ {
		db.AddFact("friend", datagen.Name("a", 1+rng.Intn(sz.SepChain)), datagen.Name("a", 1+rng.Intn(sz.SepChain)))
		db.AddFact("cheaper", datagen.Name("b", 1+rng.Intn(sz.SepChain)), datagen.Name("b", 1+rng.Intn(sz.SepChain)))
	}
	facts, err := factsText(db)
	if err != nil {
		return nil, err
	}
	in := &instance{
		name: "fixpoint_separable", progText: datagen.Example12Program().String(), facts: facts, pred: "buys",
		clients: 1, warm: sz.SepOps / 40,
	}
	if in.eng, err = newRAMEngine(in.progText, facts, sepdl.WithPlanCache(false), sepdl.WithClosureCache(-1)); err != nil {
		return nil, err
	}
	for i := 0; i < sz.SepOps; i++ {
		in.ops = append(in.ops, queryOp("buys", datagen.Name("a", 1+rng.Intn(sz.SepChain/2)), sepdl.Separable))
	}
	return in, nil
}

// setupFixpointDense: transitive closure over a dense random graph,
// in-process, one client, caches off, default parallelism; ops alternate
// semi-naive and Magic Sets.
func setupFixpointDense(env runConfig) (*instance, error) {
	sz := env.sz
	db := database.New()
	datagen.RandomGraph(db, "edge", "v", sz.DenseNodes, sz.DenseEdges, env.seed)
	facts, err := factsText(db)
	if err != nil {
		return nil, err
	}
	in := &instance{
		name: "fixpoint_dense", progText: pathProgram, facts: facts, pred: "path",
		clients: 1, warm: sz.DenseOps / 20,
	}
	if in.eng, err = newRAMEngine(in.progText, facts, sepdl.WithPlanCache(false), sepdl.WithClosureCache(-1)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.seed + 1))
	for i := 0; i < sz.DenseOps; i++ {
		strategy := sepdl.SemiNaive
		if i%2 == 1 {
			strategy = sepdl.MagicSets
		}
		in.ops = append(in.ops, queryOp("path", datagen.Name("v", 1+rng.Intn(sz.DenseNodes)), strategy))
	}
	return in, nil
}

// durableOpts is the stated flush policy of both durable workloads:
// group-durable appends (no fsync per write); checkpoints and segment
// publishes still fsync.
func durableOpts(more ...sepdl.EngineOption) []sepdl.EngineOption {
	return append([]sepdl.EngineOption{sepdl.WithSyncWrites(false)}, more...)
}

// setupDurableIngest: the write path. One client appends bounded edge
// chains through sepdl.Open (90 % of ops) and reads back the reach of a
// recently completed chain (10 %), with a small memtable and checkpoint
// threshold so flush-and-rebase cycles keep running underneath.
func setupDurableIngest(env runConfig) (*instance, error) {
	sz := env.sz
	in := &instance{
		name: "durable_ingest", progText: pathProgram, pred: "path",
		clients: 1, warm: sz.IngestOps, primaryWrite: true, dir: filepath.Join(env.scratch, "ingest"),
		// The oracle's cost grows with the pass, so the pass stays short
		// and the counts run over four of them.
		countPasses: 4,
	}
	rng := rand.New(rand.NewSource(env.seed))
	var facts strings.Builder
	var done []int
	for chain, writes := 0, 0; len(in.ops) < sz.IngestOps; chain++ {
		nodes := 4 + rng.Intn(sz.IngestChainMax-3)
		for i := 1; i < nodes && len(in.ops) < sz.IngestOps; i++ {
			from, to := fmt.Sprintf("c%dv%d", chain, i), fmt.Sprintf("c%dv%d", chain, i+1)
			in.ops = append(in.ops, op{write: true, pred: "edge", args: []string{from, to}, perPass: true})
			fmt.Fprintf(&facts, "edge(%s, %s).\n", from, to)
			// Every ninth write is followed by a read of one of the last
			// sixteen completed chains: its reach is bounded by the chain
			// length, so read latency does not drift as the database grows.
			if writes++; writes%9 == 0 && len(done) > 0 && len(in.ops) < sz.IngestOps {
				c := done[len(done)-1-rng.Intn(min(len(done), 16))]
				o := queryOp("path", fmt.Sprintf("c%dv1", c), "")
				o.perPass = true
				in.ops = append(in.ops, o)
			}
		}
		done = append(done, chain)
	}
	in.facts = facts.String()
	in.reopenOpts = durableOpts(sepdl.WithMemtableBytes(sz.IngestMemtable), sepdl.WithCheckpointBytes(sz.IngestCheckpoint))
	var err error
	if in.eng, err = sepdl.Open(in.dir, in.reopenOpts...); err != nil {
		return nil, err
	}
	in.closeFn = in.eng.Close
	if err := in.eng.LoadProgram(in.progText); err != nil {
		in.eng.Close()
		return nil, err
	}
	// The bytes-per-fact figure is taken over a fixed number of facts (the
	// warm-up pass), right after a forced checkpoint, so it repeats
	// exactly for a seed however many ops the timed window fits. The
	// engine is closed and reopened first: Close waits out the background
	// checkpoint the warm-up pass left in flight, and Engine.Checkpoint
	// racing one loses acknowledged facts (see README, "Found while
	// building").
	in.afterWarm = func() error {
		if err := in.eng.Close(); err != nil {
			return err
		}
		if in.eng, err = sepdl.Open(in.dir, in.reopenOpts...); err != nil {
			return err
		}
		in.closeFn = in.eng.Close
		if err := in.eng.Checkpoint(); err != nil {
			return err
		}
		n, err := dirBytes(in.dir)
		in.diskPerFact = ratio(float64(n), float64(in.eng.NumFacts()))
		return err
	}
	return in, nil
}

// setupColdQuery: the only workload bigger than the program's own cache.
// Many small clusters of paper Example 1.1 (a friend chain, an idol chain
// of skip edges, one perfectFor exit) are ingested through the durable
// path, checkpointed into segments, and reopened with a block cache a
// quarter the size of the segment file. Every probe of Example 1.1 binds
// a leading column, so every cold read is a key-range scan. Zipf-chosen
// clusters keep a hot set in the cache while the tail misses; 5 % of ops
// add facts to the overlay.
func setupColdQuery(env runConfig) (*instance, error) {
	sz := env.sz
	in := &instance{
		name: "cold_query", progText: datagen.Example11Program().String(), pred: "buys",
		clients: 1, warm: sz.ColdOps / 4, dir: filepath.Join(env.scratch, "cold"),
	}
	cluster := func(b *strings.Builder, c int) {
		for i := 1; i < sz.ColdChain; i++ {
			fmt.Fprintf(b, "friend(a%dn%d, a%dn%d).\n", c, i, c, i+1)
			if i+2 <= sz.ColdChain {
				fmt.Fprintf(b, "idol(a%dn%d, a%dn%d).\n", c, i, c, i+2)
			}
		}
		fmt.Fprintf(b, "perfectFor(a%dn%d, g%d).\n", c, sz.ColdChain, c)
	}

	e, err := sepdl.Open(in.dir, durableOpts(sepdl.WithCheckpointBytes(-1))...)
	if err != nil {
		return nil, err
	}
	if err := e.LoadProgram(in.progText); err != nil {
		e.Close()
		return nil, err
	}
	const batch = 512 // clusters per LoadFacts call: one WAL record each
	for c := 0; c < sz.ColdClusters; c += batch {
		var b strings.Builder
		for j := c; j < min(c+batch, sz.ColdClusters); j++ {
			cluster(&b, j)
		}
		if err := e.LoadFacts(b.String()); err != nil {
			e.Close()
			return nil, err
		}
	}
	if err := e.Checkpoint(); err != nil {
		e.Close()
		return nil, err
	}
	facts := e.NumFacts()
	if err := e.Close(); err != nil {
		return nil, err
	}
	total, err := dirBytes(in.dir)
	if err != nil {
		return nil, err
	}
	in.diskPerFact = ratio(float64(total), float64(facts))
	in.acked.Store(int64(facts))
	seg, err := segmentBytes(in.dir)
	if err != nil {
		return nil, err
	}
	// No flush during the window: a flush would swap the segment, and with
	// it every cache key, under the readers. Recovery has already left
	// every ingested fact cold; the added facts stay in the RAM overlay.
	in.reopenOpts = durableOpts(sepdl.WithBlockCacheBytes(seg/sz.ColdCacheDiv), sepdl.WithClosureCache(-1),
		sepdl.WithCheckpointBytes(-1))
	if in.eng, err = sepdl.Open(in.dir, in.reopenOpts...); err != nil {
		return nil, err
	}
	in.closeFn = in.eng.Close

	rng := rand.New(rand.NewSource(env.seed))
	// Cluster k's rows sit next to cluster k+1's in every segment table, so
	// drawing low-numbered clusters most often makes the first blocks of
	// each table the hot set, and leaves the tail spread over the rest.
	zipf := rand.NewZipf(rng, sz.ColdZipf, sz.ColdZipfV, uint64(sz.ColdClusters-1))
	touched := map[int]bool{}
	var reach strings.Builder
	for i := 0; i < sz.ColdOps; i++ {
		if i%20 == 19 {
			in.ops = append(in.ops, op{write: true, pred: "friend", perPass: true,
				args: []string{fmt.Sprintf("z%d", i), fmt.Sprintf("z%d", i+1)}})
			continue
		}
		c := int(zipf.Uint64())
		if !touched[c] {
			touched[c] = true
			cluster(&reach, c)
		}
		in.ops = append(in.ops, queryOp("buys", fmt.Sprintf("a%dn%d", c, 1+rng.Intn(max(sz.ColdChain/2, 1))), sepdl.Separable))
	}
	// Clusters share no constant, so the clusters the ops start in hold
	// every fact an answer can depend on.
	in.facts = reach.String()
	return in, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

func segmentBytes(dir string) (int64, error) {
	var n int64
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
