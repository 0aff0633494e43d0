package sepdl

// The differential harness checks the paper's correctness claim in one
// table (Theorem 2.1: every algorithm returns naive's answer). A runner
// answers a query; a mode builds an engine in some state and answers
// with it; an input is a program, its facts and its queries. Every cell
// of runner × mode × input must render byte for byte what the input's
// reference runner answers in plain mode. One skip rule holds in every
// mode: a runner may reject a query only if the input lists it in skipOK,
// and a runner that rejects a query in plain mode must reject it in every
// mode. TestCorpusCrossValidation runs the plain cells; each further mode
// runs under its own test (see differential), one subtest per input.

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sepdl/internal/aho"
	"sepdl/internal/ast"
	internalbudget "sepdl/internal/budget"
	"sepdl/internal/core"
	"sepdl/internal/counting"
	"sepdl/internal/database"
	"sepdl/internal/hn"
	"sepdl/internal/leakcheck"
	"sepdl/internal/parser"
	"sepdl/internal/rel"
	"sepdl/internal/tabling"
)

// servedStrategies is every strategy a query can be forced to.
var servedStrategies = []Strategy{Separable, MagicSets, MagicSetsSup, SemiNaive, Naive}

// baseline is one of the paper's comparison algorithms, which the engine
// does not serve. The harness and the budget suites call it as a package,
// on the engine's program and a snapshot of its facts. Tabling is the one
// top-down oracle among the runners.
type baseline struct {
	name   string
	answer func(prog *ast.Program, db *database.Database, q ast.Atom, bud *internalbudget.Budget) (*rel.Relation, error)
}

var (
	baselineCounting = baseline{"counting", func(prog *ast.Program, db *database.Database, q ast.Atom, bud *internalbudget.Budget) (*rel.Relation, error) {
		return counting.Answer(prog, db, q, counting.Options{Budget: bud})
	}}
	baselineHN = baseline{"hn", func(prog *ast.Program, db *database.Database, q ast.Atom, bud *internalbudget.Budget) (*rel.Relation, error) {
		return hn.Answer(prog, db, q, hn.Options{Budget: bud})
	}}
	baselineAho = baseline{"aho", func(prog *ast.Program, db *database.Database, q ast.Atom, bud *internalbudget.Budget) (*rel.Relation, error) {
		return aho.Answer(prog, db, q, aho.Options{Budget: bud})
	}}
	baselineTabling = baseline{"tabling", func(prog *ast.Program, db *database.Database, q ast.Atom, bud *internalbudget.Budget) (*rel.Relation, error) {
		return tabling.Answer(prog, db, q, tabling.Options{Budget: bud})
	}}
	baselines = []baseline{baselineCounting, baselineHN, baselineAho, baselineTabling}
)

// run answers query on e's current program and facts under ctx and the
// tracker the engine would build for b, rendering the answers as
// Result.String does.
func (bl baseline) run(ctx context.Context, e *Engine, query string, b Budget) (out string, err error) {
	q, err := parser.Query(query)
	if err != nil {
		return "", err
	}
	st, db, _ := e.snapshot()
	cfg := e.newQueryConfig([]QueryOption{WithBudget(b)})
	bud := cfg.tracker(ctx)
	bud.SetStrategy(bl.name)
	defer internalbudget.Guard(&err) // aho has no Guard of its own
	ans, err := bl.answer(st.prog, db, q, bud)
	if err != nil {
		return "", err
	}
	return ans.Dump(db.Syms), nil
}

// runner answers queries through the engine under a forced strategy
// (Auto included) or, for a baseline, on a snapshot of the engine's facts.
type runner struct {
	name     string
	strategy Strategy
	bl       *baseline
}

// outcome is one cell: the answers rendered as Result.String does, or the
// rejection, and an engine runner's Stats.
type outcome struct {
	out   string
	err   error
	stats Stats
}

func resultOutcome(res *Result, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	return outcome{out: res.String(), stats: res.Stats}
}

// query answers q on e.
func (r runner) query(e *Engine, q string) outcome {
	if r.bl != nil {
		out, err := r.bl.run(context.Background(), e, q, Budget{})
		return outcome{out: out, err: err}
	}
	return resultOutcome(e.Query(q, WithStrategy(r.strategy)))
}

var (
	autoRunner      = runner{name: string(Auto), strategy: Auto}
	separableRunner = runner{name: string(Separable), strategy: Separable}
	// servedRunners force each served strategy; engineRunners add Auto;
	// allRunners add the baselines.
	servedRunners, engineRunners, allRunners = func() (served, engine, all []runner) {
		for _, s := range servedStrategies {
			served = append(served, runner{name: string(s), strategy: s})
		}
		engine = append([]runner{autoRunner}, served...)
		all = slices.Clone(engine)
		for i := range baselines {
			all = append(all, runner{name: baselines[i].name, bl: &baselines[i]})
		}
		return served, engine, all
	}()
)

// compare is the harness's one comparison: got must make want's accept or
// reject decision and, when both answer, render the same rows.
func compare(t *testing.T, label string, got, want outcome) {
	t.Helper()
	switch {
	case (got.err == nil) != (want.err == nil):
		t.Errorf("%s: err = %v, want err = %v", label, got.err, want.err)
	case got.out != want.out:
		t.Errorf("%s = %s, want %s", label, got.out, want.out)
	}
}

// agree compares two engines cell by cell under every served strategy.
// The durable suites check recovered and faulted engines against an
// in-RAM oracle with it.
func agree(t *testing.T, label string, got, want *Engine, queries []string) {
	t.Helper()
	for _, q := range queries {
		for _, r := range servedRunners {
			compare(t, fmt.Sprintf("%s: %s [%s]", label, q, r.name), r.query(got, q), r.query(want, q))
		}
	}
}

// plainEngine is plain mode's engine: both caches off, so every query
// compiles and evaluates from scratch.
func plainEngine(t *testing.T, program, facts string, opts ...EngineOption) *Engine {
	t.Helper()
	return load(t, New(append([]EngineOption{WithPlanCache(false), WithClosureCache(-1)}, opts...)...), program, facts)
}

// load puts program and facts into e.
func load(t *testing.T, e *Engine, program, facts string) *Engine {
	t.Helper()
	if err := e.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadFacts(facts); err != nil {
		t.Fatal(err)
	}
	return e
}

// input is a program, its facts in ingest order, and its queries.
type input struct {
	name    string
	program string
	facts   [][]string // each row is a predicate and its arguments
	queries []string
	// skipOK names the runners that legitimately reject some queries of
	// this input: scope errors are fine, wrong answers are not.
	skipOK []string
	// reference is the runner whose plain answers every cell must match;
	// naive unless set.
	reference Strategy
	// runners, when set, limits the input to these runners.
	runners []runner
	// modes are the modes the input runs in besides plain.
	modes []string
	// stages are fact counts at which the incremental modes (cold, view)
	// stop mid-ingest and compare against a plain engine holding the
	// facts ingested so far.
	stages []int
	// flushes: half the facts outgrow the cold mode's memtable, so its
	// budget alone must start a checkpoint before the mode forces one.
	flushes bool
}

// rows parses a fact list; the inputs are literals, so a parse error is a
// bug in this file.
func rows(src string) [][]string {
	atoms, err := parser.Facts(src)
	if err != nil {
		panic(err)
	}
	out := make([][]string, len(atoms))
	for i, a := range atoms {
		out[i] = []string{a.Pred}
		for _, arg := range a.Args {
			out[i] = append(out[i], arg.Name)
		}
	}
	return out
}

// factText renders rows as LoadFacts source.
func factText(facts [][]string) string {
	var b strings.Builder
	for _, f := range facts {
		args := make([]string, len(f)-1)
		for i, a := range f[1:] {
			args[i] = ast.QuoteConst(a)
		}
		fmt.Fprintf(&b, "%s(%s).\n", f[0], strings.Join(args, ", "))
	}
	return b.String()
}

func (in *input) on(r runner) bool {
	return in.runners == nil || slices.ContainsFunc(in.runners, func(x runner) bool { return x.name == r.name })
}

// Every mode but parallel runs on the corpus: parallel's cells there
// would repeat plain's (see the parallel mode). Concurrent runs on the
// corpus only; view skips programs with negation, which Materialize
// rejects.
var (
	corpusModes   = []string{"cached", "prepared", "batched", "materialized-rounds", "reversed-rules", "cold", "recovered", "recovered-ram", "view", "concurrent"}
	testdataModes = without(corpusModes, "concurrent")
	noViewModes   = without(corpusModes, "view")
)

func without(modes []string, name string) []string {
	return slices.DeleteFunc(slices.Clone(modes), func(m string) bool { return m == name })
}

var corpus = []*input{
	{
		name: "example11-tree",
		program: `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`,
		facts: rows(`
friend(a, b). friend(a, c). friend(b, d). friend(c, d).
idol(d, e). idol(a, e).
perfectFor(e, g1). perfectFor(b, g2). perfectFor(z, g3).
`),
		queries: []string{
			`buys(a, Y)?`, `buys(d, Y)?`, `buys(X, g1)?`, `buys(a, g2)?`,
			`buys(z, g1)?`, `buys(X, Y)?`,
		},
		// Separable rejects the all-free query; the baselines reject
		// non-stable selections.
		skipOK: []string{"separable", "aho", "counting", "hn"},
		modes:  corpusModes,
	},
	{
		name: "example12-cycles",
		program: `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`,
		// The facts arrive so that the stages delete from closed cycles:
		// at 4, friend(b, c), the only way out of the a–b cycle; at 6,
		// friend(a, b), on the cycle itself.
		facts: rows(`
perfectFor(c, g1). friend(b, c). friend(a, b). friend(b, a).
cheaper(g2, g1). cheaper(g3, g2). cheaper(g1, g3).
`),
		queries: []string{`buys(a, Y)?`, `buys(X, g2)?`, `buys(b, g3)?`},
		skipOK:  []string{"aho", "counting", "hn"}, // cyclic data diverges / not stable
		modes:   corpusModes,
		stages:  []int{2, 4, 6},
	},
	{
		name: "three-classes",
		program: `
t(X, Y, Z) :- a(X, W) & t(W, Y, Z).
t(X, Y, Z) :- t(X, W, Z) & b(W, Y).
t(X, Y, Z) :- t(X, Y, W) & c(W, Z).
t(X, Y, Z) :- t0(X, Y, Z).
`,
		facts: rows(`
a(x1, x2). a(x2, x3).
b(y1, y2). b(y2, y3).
c(z1, z2).
t0(x3, y1, z1). t0(x1, y2, z2).
`),
		queries: []string{
			`t(x1, Y, Z)?`, `t(X, y3, Z)?`, `t(X, Y, z2)?`, `t(x1, y3, Z)?`,
			`t(x1, y3, z2)?`,
		},
		skipOK: []string{"aho"},
		modes:  corpusModes,
	},
	{
		name: "wide-class-partial",
		program: `
t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).
t(X, Y, Z) :- t(X, Y, W) & b(W, Z).
t(X, Y, Z) :- t0(X, Y, Z).
`,
		facts: rows(`
a(p1, q1, p2, q2). a(p2, q2, p3, q3).
t0(p3, q3, w1). t0(p1, q1, w0).
b(w1, w2). b(w0, w3). b(w2, w4).
`),
		queries: []string{
			`t(p1, Y, Z)?`, `t(X, q1, Z)?`, `t(p1, q1, Z)?`, `t(X, Y, w4)?`,
			`t(p1, Y, w2)?`,
		},
		skipOK: []string{"aho", "counting", "hn"}, // partial selections out of scope
		modes:  corpusModes,
	},
	{
		name: "idb-support-preds",
		program: `
contact(X, Y) :- friend(X, Y).
contact(X, Y) :- colleague(X, Y).
closeTo(X, Y) :- contact(X, Y) & contact(Y, X).
buys(X, Y) :- closeTo(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`,
		facts: rows(`
friend(a, b). colleague(b, a). friend(b, c). friend(c, b).
perfectFor(c, g).
`),
		queries: []string{`buys(a, Y)?`, `buys(X, g)?`},
		// closeTo is cyclic, so Counting and HN legitimately diverge.
		skipOK: []string{"aho", "counting", "hn"},
		modes:  corpusModes,
	},
	{
		name: "multiple-exits-and-pers",
		program: `
reach(X, Y, T) :- hop(X, W) & reach(W, Y, T).
reach(X, Y, T) :- direct(X, Y, T).
reach(X, Y, T) :- shuttle(Y, X, T).
`,
		facts: rows(`
hop(a, b). hop(b, c).
direct(c, d, bus). direct(b, e, car).
shuttle(f, c, bus).
`),
		queries: []string{
			`reach(a, Y, T)?`, `reach(X, d, T)?`, `reach(X, Y, bus)?`,
			`reach(a, f, bus)?`,
		},
		skipOK: []string{"aho"},
		modes:  corpusModes,
	},
	{
		name: "negation-strata",
		program: `
reach(X) :- start(X).
reach(Y) :- reach(X) & edge(X, Y).
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
blocked(X) :- node(X) & not reach(X).
`,
		facts: rows(`
start(a). edge(a, b). edge(c, d). edge(d, c).
`),
		queries: []string{`blocked(X)?`, `blocked(c)?`, `reach(X)?`, `blocked(a)?`},
		// The paper's algorithms are pure-Horn only; reach's rules make
		// selections non-stable for Aho-Ullman; tabling rejects negated
		// IDB atoms.
		skipOK: []string{"separable", "counting", "hn", "aho", "tabling"},
		modes:  noViewModes,
	},
}

// coldGraphFacts builds a dense-ish layered edge set big enough to
// outgrow a small memtable budget several times over.
func coldGraphFacts(n int) [][]string {
	var out [][]string
	for i := 0; i < n; i++ {
		out = append(out, []string{"edge", fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", (i+1)%n)})
		if i%3 == 0 {
			out = append(out, []string{"edge", fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", (i+7)%n)})
		}
	}
	return out
}

const coldTCProgram = `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`

// multiClassFamily is the benchmark's c-class family over chains of n
// nodes: t(X1..Xc) :- ei(Xi, W) & t(..W..) for each class i.
func multiClassFamily(n, c int) (program string, facts [][]string) {
	var pb strings.Builder
	vars := make([]string, c)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i+1)
	}
	head := "t(" + strings.Join(vars, ", ") + ")"
	ends := []string{"t0"}
	for i := 1; i <= c; i++ {
		body := slices.Clone(vars)
		body[i-1] = "W"
		fmt.Fprintf(&pb, "%s :- e%d(X%d, W) & t(%s).\n", head, i, i, strings.Join(body, ", "))
		for j := 1; j < n; j++ {
			facts = append(facts, []string{fmt.Sprintf("e%d", i), fmt.Sprintf("c%dv%d", i, j), fmt.Sprintf("c%dv%d", i, j+1)})
		}
		ends = append(ends, fmt.Sprintf("c%dv%d", i, n))
	}
	fmt.Fprintf(&pb, "%s :- t0(%s).\n", head, strings.Join(vars, ", "))
	return pb.String(), append(facts, ends)
}

// inputs is the corpus, the two testdata programs, the cold-storage graph
// and the 4-class family.
func inputs(t *testing.T) []*input {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	multiProgram, multiFacts := multiClassFamily(17, 4)
	return append(slices.Clone(corpus),
		&input{
			name:    "testdata-buys",
			program: read("testdata/buys.dl"),
			facts:   rows(read("testdata/buys_facts.dl")),
			queries: []string{`buys(tom, Y)?`, `buys(sue, Y)?`, `buys(X, radio)?`, `buys(harry, radio)?`},
			skipOK:  []string{"aho"},
			modes:   testdataModes,
		},
		&input{
			name:    "testdata-nonseparable",
			program: read("testdata/nonseparable.dl"),
			facts: rows(`
sibling(a, b).
parent(p1, a). parent(p1, c). parent(p2, b). parent(p2, d).
`),
			queries: []string{`sg(a, Y)?`, `sg(X, Y)?`, `sg(c, d)?`},
			skipOK:  []string{"separable", "counting", "hn", "aho"},
			modes:   testdataModes,
		},
		// The graph exists to outgrow a small memtable, so it runs in
		// the storage modes only, under the engine's runners: a naive
		// pass over it costs a second. Its ring closes at fact 122, the
		// back edge n090→n001, so the last stage queries a cycle, and the
		// view deletes the ring edge n045→n046 there.
		&input{
			name:    "cold-graph",
			program: coldTCProgram,
			facts:   coldGraphFacts(96),
			queries: []string{
				"path(n000, Y)?", "path(X, n005)?", "path(n010, n011)?", "edge(n000, Y)?",
				"path(X, Y)?", "edge(X, n003)?", "path(n004, n002)?",
			},
			skipOK:  []string{"separable"}, // path(X, Y)? has no selection
			runners: engineRunners,
			modes:   []string{"cold", "recovered", "recovered-ram", "view"},
			stages:  []int{6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 64, 122},
			flushes: true,
		},
		// 17⁴ tuples in t make naive and both magic strategies cost
		// minutes, so semi-naive is the reference. Its queries leave two
		// or three phase-2 classes, so Separable answers them as the
		// product of per-class closures: from scratch in plain mode,
		// through the closure cache in cached mode.
		&input{
			name:    "multi-class-4",
			program: multiProgram,
			facts:   multiFacts,
			queries: []string{
				`t(c1v1, Y2, Y3, Y4)?`,
				`t(c1v1, c2v2, Y3, Y4)?`,
				`t(X, Y, Z, c4v1)?`,
			},
			reference: SemiNaive,
			runners:   []runner{autoRunner, separableRunner, {name: string(SemiNaive), strategy: SemiNaive}},
			modes:     []string{"cached", "parallel"},
		},
	)
}

// answerFunc answers an input's queries with one runner, one outcome per
// query.
type answerFunc func(r runner, queries []string) []outcome

// stageFunc compares a mode's answers mid-ingest, over facts, against
// the reference on a plain engine holding the same facts.
type stageFunc func(label string, facts [][]string, answer answerFunc)

func perQuery(f func(r runner, q string) outcome) answerFunc {
	return func(r runner, queries []string) []outcome {
		out := make([]outcome, len(queries))
		for i, q := range queries {
			out[i] = f(r, q)
		}
		return out
	}
}

// answerOn answers with each runner on e.
func answerOn(e *Engine) answerFunc {
	return perQuery(func(r runner, q string) outcome { return r.query(e, q) })
}

// repeatedBatch runs q as a two-seed batch, which must answer as the
// single run did. Only Separable tags a batch's rows with the seed index,
// so every other strategy's batch of one repeated seed runs the single
// query's fixpoint and must report its peak intermediate bytes.
func repeatedBatch(t *testing.T, e *Engine, r runner, q string, single outcome) {
	t.Helper()
	label := fmt.Sprintf("%s [%s] two-seed batch", q, r.name)
	res, err := e.QueryBatch(context.Background(), []string{q, q}, WithStrategy(r.strategy))
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return
	}
	compare(t, label, resultOutcome(res[0], nil), single)
	got, want := res[0].Stats.PeakIntermediateBytes, single.stats.PeakIntermediateBytes
	if res[0].Stats.Strategy != Separable && got != want {
		t.Errorf("%s: peak %d bytes, single run %d", label, got, want)
	}
}

// reversed returns program with its lines, one rule each, in reverse
// order.
func reversed(program string) string {
	lines := strings.Split(strings.TrimSpace(program), "\n")
	slices.Reverse(lines)
	return strings.Join(lines, "\n")
}

// sameRounds reports whether two runs share a round structure: rounds,
// insertions and every relation's peak size, but for the
// supplementary-magic relations, whose names carry a rule index.
func sameRounds(got, want Stats) bool {
	ruleIndexed := func(name string, _ int) bool { return strings.HasPrefix(name, "sup@") }
	g, w := maps.Clone(got.RelationSizes), maps.Clone(want.RelationSizes)
	maps.DeleteFunc(g, ruleIndexed)
	maps.DeleteFunc(w, ruleIndexed)
	return got.Iterations == want.Iterations && got.Inserted == want.Inserted && maps.Equal(g, w)
}

// driverCols is the columns of the class Separable's first loop runs over
// for query on program, or nil when no class drives it.
func driverCols(program, query string) []int {
	prog, err := parser.Program(program)
	if err != nil {
		return nil
	}
	q, err := parser.Query(query)
	if err != nil {
		return nil
	}
	a, err := core.Analyze(prog, q.Pred)
	if err != nil {
		return nil
	}
	sel, err := a.Classify(q)
	if err != nil || sel.Driver < 0 {
		return nil
	}
	return a.Classes[sel.Driver].Cols
}

// mode builds an engine holding an input in some state and returns how it
// answers.
type mode struct {
	name    string
	runners []runner
	// rounds, when set, admits the runs that must also match plain's
	// round structure (see sameRounds).
	rounds func(in *input, q string, got Stats) bool
	build  func(t *testing.T, in *input, stage stageFunc) answerFunc
}

var modes = []mode{
	// A cold query, then a warm one of the same form from the plan cache.
	{name: "cached", runners: engineRunners, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		e := load(t, New(), in.program, factText(in.facts))
		st, _, _ := e.snapshot()
		idb := st.prog.IDBPreds()
		return perQuery(func(r runner, q string) outcome {
			cold, warm := r.query(e, q), r.query(e, q)
			label := fmt.Sprintf("%s [%s warm]", q, r.name)
			compare(t, label, warm, cold)
			if pq, _ := parser.Query(q); warm.err == nil && idb[pq.Pred] && !warm.stats.PlanCacheHit {
				t.Errorf("%s: missed the plan cache", label)
			}
			return cold
		})
	}},
	{name: "prepared", runners: engineRunners, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		e := load(t, New(), in.program, factText(in.facts))
		return perQuery(func(r runner, q string) outcome {
			p, err := e.Prepare(q, WithStrategy(r.strategy))
			if err != nil {
				return outcome{err: err}
			}
			return resultOutcome(p.Run(context.Background(), queryConsts(t, q)...))
		})
	}},
	// Each batch is one form's queries with the first repeated, so every
	// batch has several elements and a repeated seed.
	{name: "batched", runners: engineRunners, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		e := load(t, New(), in.program, factText(in.facts))
		return func(r runner, queries []string) []outcome {
			groups := map[string][]int{}
			var order []string
			for i, query := range queries {
				q, err := parser.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				key := q.Pred + "/" + formMask(q)
				if groups[key] == nil {
					order = append(order, key)
				}
				groups[key] = append(groups[key], i)
			}
			out := make([]outcome, len(queries))
			for _, key := range order {
				g := groups[key]
				batch := []string{queries[g[0]]}
				for _, i := range g {
					batch = append(batch, queries[i])
				}
				results, err := e.QueryBatch(context.Background(), batch, WithStrategy(r.strategy))
				for j, i := range g {
					if err != nil {
						out[i] = outcome{err: err}
						continue
					}
					out[i] = resultOutcome(results[j+1], nil)
					if n := results[j+1].Stats.BatchSize; n != len(batch) {
						t.Errorf("batch %v [%s] element %d: BatchSize = %d, want %d", batch, r.name, j+1, n, len(batch))
					}
				}
				if err == nil {
					compare(t, fmt.Sprintf("batch %v [%s] repeated element", batch, r.name), resultOutcome(results[0], nil), out[g[0]])
				}
			}
			return out
		}
	}},
	// The round-structure reference. Rule bodies read the totals frozen
	// at the round start, so a round derives the same tuples whatever
	// order its rules run in: on the rules reversed, every engine runner
	// must match plain's round structure. A round whose bodies read the
	// growing totals would find answers in fewer rounds, in an order that
	// depends on the rules. One order does matter: Separable's first loop
	// runs over the widest fully bound class, the first in rule order on
	// a tie, so a Separable run is held to plain's rounds only where both
	// orders pick the same class. Each query also runs as a repeated-seed
	// batch (see repeatedBatch). The mode once compared a materializing
	// round pipeline with the streaming one; that pipeline is gone, and
	// the mode keeps its name because its subtests are tracked by it.
	{name: "materialized-rounds", runners: engineRunners, rounds: func(in *input, q string, got Stats) bool {
		return got.Strategy != Separable || slices.Equal(driverCols(in.program, q), driverCols(reversed(in.program), q))
	}, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		e := plainEngine(t, reversed(in.program), factText(in.facts))
		return perQuery(func(r runner, q string) outcome {
			single := r.query(e, q)
			if single.err == nil {
				repeatedBatch(t, e, r, q, single)
			}
			return single
		})
	}},
	{name: "reversed-rules", runners: allRunners, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		return answerOn(plainEngine(t, reversed(in.program), factText(in.facts)))
	}},
	// WithParallelism is deprecated and has no effect: an engine built
	// with it must answer the multi-class family exactly as plain does.
	// The option once fanned Separable's phase-2 classes out on
	// goroutines, so the mode runs Separable and Auto.
	{name: "parallel", runners: []runner{autoRunner, separableRunner}, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		return answerOn(plainEngine(t, in.program, factText(in.facts), WithParallelism(8)))
	}},
	// Facts land one write at a time in a 1 KiB memtable, whose flushes
	// rebase the engine onto segments read through an 8 KiB block cache;
	// the log-size trigger is off, so on an input that flushes, the
	// memtable budget alone must have started a checkpoint by halfway. A
	// checkpoint there forces one more rebase, so the stages' queries
	// straddle rebases, and a last checkpoint leaves every fact cold.
	{name: "cold", runners: engineRunners, build: func(t *testing.T, in *input, stage stageFunc) answerFunc {
		e, err := Open(t.TempDir(), WithMemtableBytes(1<<10), WithBlockCacheBytes(8<<10), WithCheckpointBytes(-1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		if err := e.LoadProgram(in.program); err != nil {
			t.Fatal(err)
		}
		answer := answerOn(e)
		for i, f := range in.facts {
			if err := e.AddFact(f[0], f[1:]...); err != nil {
				t.Fatal(err)
			}
			if i+1 == len(in.facts)/2 {
				deadline := time.Now().Add(10 * time.Second)
				for in.flushes && e.Stats().WAL.Checkpoints == 0 {
					if time.Now().After(deadline) {
						t.Fatal("the memtable budget never started a checkpoint")
					}
					time.Sleep(10 * time.Millisecond)
				}
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if slices.Contains(in.stages, i+1) {
				stage(fmt.Sprintf("after %d facts", i+1), in.facts[:i+1], answer)
			}
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats().WAL.Segment; st.SegmentFiles == 0 || st.SegmentBuilds == 0 || st.SegmentTuples == 0 {
			t.Fatalf("no segments built: %+v", st)
		}
		return func(r runner, queries []string) []outcome {
			out := answer(r, queries)
			if e.Stats().WAL.Segment.SegmentBytesRead == 0 {
				t.Errorf("[%s] queries never read a segment block", r.name)
			}
			return out
		}
	}},
	// Reopen a directory holding a checkpoint and a log tail: half the
	// facts as one LoadFacts record, then the rest as AddFact records.
	{name: "recovered", runners: engineRunners, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		return answerOn(recovered(t, in, WithMemtableBytes(2<<10), WithBlockCacheBytes(8<<10)))
	}},
	{name: "recovered-ram", runners: engineRunners, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		return answerOn(recovered(t, in, WithColdStorage(false)))
	}},
	// Facts arrive through View.AddFact; after every second one an older
	// fact is deleted and added back, so DRed runs throughout, and each
	// stage is checked both with that fact deleted and after it is back.
	// View.Query takes no strategy: Auto stands for the view's own
	// evaluation.
	{name: "view", runners: []runner{autoRunner}, build: func(t *testing.T, in *input, stage stageFunc) answerFunc {
		v, err := load(t, New(), in.program, "").Materialize()
		if err != nil {
			t.Fatal(err)
		}
		answer := perQuery(func(_ runner, q string) outcome { return resultOutcome(v.Query(q)) })
		for i, f := range in.facts {
			if _, err := v.AddFact(f[0], f[1:]...); err != nil {
				t.Fatal(err)
			}
			n := i + 1
			if n%2 == 0 {
				old := in.facts[n/2-1]
				if _, err := v.DeleteFact(old[0], old[1:]...); err != nil {
					t.Fatal(err)
				}
				if slices.Contains(in.stages, n) {
					rest := slices.Delete(slices.Clone(in.facts[:n]), n/2-1, n/2)
					stage(fmt.Sprintf("after %d facts, %v deleted", n, old), rest, answer)
				}
				if _, err := v.AddFact(old[0], old[1:]...); err != nil {
					t.Fatal(err)
				}
			}
			if slices.Contains(in.stages, n) {
				stage(fmt.Sprintf("after %d facts", n), in.facts[:n], answer)
			}
		}
		return answer
	}},
	// Four goroutines run each query at once on one engine.
	{name: "concurrent", runners: engineRunners, build: func(t *testing.T, in *input, _ stageFunc) answerFunc {
		e := load(t, New(), in.program, factText(in.facts))
		return perQuery(func(r runner, q string) outcome {
			var outs [4]outcome
			var wg sync.WaitGroup
			for i := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i] = r.query(e, q)
				}()
			}
			wg.Wait()
			for i := 1; i < len(outs); i++ {
				compare(t, fmt.Sprintf("%s [%s reader %d]", q, r.name, i), outs[i], outs[0])
			}
			return outs[0]
		})
	}},
}

// recovered writes in to a fresh directory, closes it and reopens it
// under opts.
func recovered(t *testing.T, in *input, opts ...EngineOption) *Engine {
	t.Helper()
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointBytes(-1), WithSyncWrites(false))
	if err != nil {
		t.Fatal(err)
	}
	half := len(in.facts) / 2
	load(t, e, in.program, factText(in.facts[:half]))
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, f := range in.facts[half:] {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	if got, want := re.Stats().WAL.RecoveredRecords, uint64(len(in.facts)-half); got != want {
		t.Errorf("RecoveredRecords = %d, want %d", got, want)
	}
	return re
}

// The cells are split by mode into the tests below, each a subtest per
// input that runs the mode, so a failure names the mode's own test. Plain
// runs once per input for all of them: plainOutcomes computes it for the
// first test that asks, and again when a test asks a second time, which
// is its next repetition under -count.

// plainRun is an input's plain outcomes by runner name and the tests that
// have read them.
type plainRun struct {
	mu      sync.Mutex
	outs    map[string][]outcome
	readers map[string]bool
}

var plainRuns sync.Map // input name → *plainRun

func plainOutcomes(t *testing.T, in *input) map[string][]outcome {
	t.Helper()
	v, _ := plainRuns.LoadOrStore(in.name, new(plainRun))
	run := v.(*plainRun)
	run.mu.Lock()
	defer run.mu.Unlock()
	test, _, _ := strings.Cut(t.Name(), "/")
	if run.outs == nil || run.readers[test] {
		run.outs, run.readers = nil, map[string]bool{}
		answer := answerOn(plainEngine(t, in.program, factText(in.facts)))
		outs := map[string][]outcome{}
		for _, r := range allRunners {
			if in.on(r) {
				outs[r.name] = answer(r, in.queries)
			}
		}
		run.outs = outs
	}
	run.readers[test] = true
	return run.outs
}

func (in *input) referenceRunner() runner {
	s := cmp.Or(in.reference, Naive)
	return runner{name: string(s), strategy: s}
}

// eachInput runs f as a parallel subtest on every input that keep admits;
// every file the subtests open must be closed when they finish.
func eachInput(t *testing.T, keep func(*input) bool, f func(t *testing.T, in *input)) {
	leakcheck.CheckResources(t)
	for _, in := range inputs(t) {
		if keep(in) {
			t.Run(in.name, func(t *testing.T) {
				t.Parallel()
				f(t, in)
			})
		}
	}
}

func everyInput(*input) bool { return true }

// TestCorpusCrossValidation runs the plain cells: the reference runner
// answers every query, and every other runner matches it or rejects
// inside skipOK.
func TestCorpusCrossValidation(t *testing.T) {
	eachInput(t, everyInput, func(t *testing.T, in *input) {
		plain := plainOutcomes(t, in)
		ref := plain[in.referenceRunner().name]
		for i, q := range in.queries {
			if ref[i].err != nil {
				t.Fatalf("%s [%s reference]: %v", q, in.referenceRunner().name, ref[i].err)
			}
		}
		for name, outs := range plain {
			for i, q := range in.queries {
				if outs[i].err != nil {
					if !slices.Contains(in.skipOK, name) {
						t.Errorf("%s [%s]: %v", q, name, outs[i].err)
					}
					continue
				}
				compare(t, fmt.Sprintf("%s [%s]", q, name), outs[i], ref[i])
			}
		}
	})
}

// TestCorpusScopeRejectionsAreErrors keeps skipOK honest: every runner it
// names runs on the input and rejects at least one query in plain mode,
// so no skip outlives its reason.
func TestCorpusScopeRejectionsAreErrors(t *testing.T) {
	eachInput(t, everyInput, func(t *testing.T, in *input) {
		plain := plainOutcomes(t, in)
		for _, name := range in.skipOK {
			outs, ok := plain[name]
			if !ok {
				t.Errorf("skipOK names %s, which does not run on this input", name)
				continue
			}
			if !slices.ContainsFunc(outs, func(o outcome) bool { return o.err != nil }) {
				t.Errorf("%s is listed in skipOK but never rejected a query", name)
			}
		}
	})
}

// differential runs the named modes on every input that lists one of
// them: each runner of a mode must reproduce its own plain outcome, a
// rejection included.
func differential(t *testing.T, names ...string) {
	runs := func(in *input) bool {
		return slices.ContainsFunc(names, func(name string) bool { return slices.Contains(in.modes, name) })
	}
	eachInput(t, runs, func(t *testing.T, in *input) {
		plain := plainOutcomes(t, in)
		// stage checks a mode mid-ingest against the reference on a plain
		// engine holding the same facts; a runner that rejects a query
		// in plain mode must reject it there too.
		stage := func(t *testing.T, rs []runner) stageFunc {
			return func(label string, facts [][]string, answer answerFunc) {
				t.Helper()
				// The reference answers each query on its own goroutine
				// while the mode answers: a naive pass over the cold
				// graph's closed ring costs a quarter second a query.
				ref := plainEngine(t, in.program, factText(facts))
				now := make([]outcome, len(in.queries))
				var wg sync.WaitGroup
				for i, q := range in.queries {
					wg.Add(1)
					go func() {
						defer wg.Done()
						now[i] = in.referenceRunner().query(ref, q)
					}()
				}
				got := make([][]outcome, len(rs))
				for j, r := range rs {
					got[j] = answer(r, in.queries)
				}
				wg.Wait()
				for j, r := range rs {
					for i, q := range in.queries {
						want := now[i]
						if plain[r.name][i].err != nil {
							want = plain[r.name][i]
						}
						compare(t, fmt.Sprintf("%s: %s [%s]", label, q, r.name), got[j][i], want)
					}
				}
			}
		}
		for _, m := range modes {
			if !slices.Contains(names, m.name) || !slices.Contains(in.modes, m.name) {
				continue
			}
			t.Run(m.name, func(t *testing.T) {
				t.Parallel()
				rs := slices.DeleteFunc(slices.Clone(m.runners), func(r runner) bool { return !in.on(r) })
				answer := m.build(t, in, stage(t, rs))
				for _, r := range rs {
					got := answer(r, in.queries)
					for i, q := range in.queries {
						label := fmt.Sprintf("%s [%s]", q, r.name)
						want := plain[r.name][i]
						compare(t, label, got[i], want)
						g, w := got[i].stats, want.stats
						if m.rounds != nil && got[i].err == nil && m.rounds(in, q, g) && !sameRounds(g, w) {
							t.Errorf("%s: rounds=%d inserted=%d sizes=%v, plain rounds=%d inserted=%d sizes=%v",
								label, g.Iterations, g.Inserted, g.RelationSizes, w.Iterations, w.Inserted, w.RelationSizes)
						}
					}
				}
			})
		}
	})
}

func TestCorpusCachedEquivalence(t *testing.T)             { differential(t, "cached", "prepared") }
func TestCorpusBatchedEquivalence(t *testing.T)            { differential(t, "batched") }
func TestStreamingMaterializedEquivalence(t *testing.T)    { differential(t, "materialized-rounds") }
func TestCorpusRuleOrderInvariance(t *testing.T)           { differential(t, "reversed-rules") }
func TestParallelMatchesSequentialMultiClass(t *testing.T) { differential(t, "parallel") }

// TestGenerationEquivalenceDurable runs the cold mode, whose stages
// straddle memtable flushes and the rebases they start.
func TestGenerationEquivalenceDurable(t *testing.T) { differential(t, "cold") }

// TestColdStorageEquivalence reopens a checkpoint and a log tail, reading
// the checkpoint's segments through a small block cache, and again with
// cold storage off.
func TestColdStorageEquivalence(t *testing.T)    { differential(t, "recovered", "recovered-ram") }
func TestGenerationEquivalenceView(t *testing.T) { differential(t, "view") }
func TestConcurrentQueriesAgree(t *testing.T)    { differential(t, "concurrent") }

// TestExplainAgreesWithQuery runs Explain beside Query on every input's
// queries on a plain engine, under Auto and under Auto with relaxed
// connectivity. Explain's first line must name the strategy Query ran, or
// be the base-predicate line for an EDB query. An IDB query with a
// constant gets a SEP050 strategy report, whether or not its recursion is
// separable. Auto's rule is checked against the rest of the report:
// Separable exactly when its SEP050 finding says the schema applies,
// semi-naive without a selection constant, Magic Sets otherwise.
func TestExplainAgreesWithQuery(t *testing.T) {
	eachInput(t, everyInput, func(t *testing.T, in *input) {
		e := plainEngine(t, in.program, factText(in.facts))
		idb := e.progState().prog.IDBPreds()
		for _, opts := range [][]QueryOption{nil, {WithRelaxedConnectivity()}} {
			for _, q := range in.queries {
				label := fmt.Sprintf("%s (%d options)", q, len(opts))
				why, err := e.Explain(q, opts...)
				if err != nil {
					t.Fatalf("%s: Explain: %v", label, err)
				}
				first, rest, _ := strings.Cut(why, "\n")
				atom, err := parser.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !idb[atom.Pred] {
					if want := atom.Pred + " is a base predicate: direct index lookup"; first != want || rest != "" {
						t.Errorf("%s: Explain = %q, want %q", label, why, want)
					}
					continue
				}
				res, err := e.Query(q, opts...)
				if err != nil {
					t.Errorf("%s: Query: %v", label, err)
					continue
				}
				if want := fmt.Sprintf("strategy: %s (chosen by auto)", res.Stats.Strategy); first != want {
					t.Errorf("%s: Explain's first line %q, Query ran %s", label, first, res.Stats.Strategy)
				}
				selects := slices.ContainsFunc(atom.Args, func(a ast.Term) bool { return !a.IsVar() })
				if selects && !strings.Contains(rest, "info[SEP050]: strategy applicability for query "+atom.String()) {
					t.Errorf("%s: Explain has no SEP050 report:\n%s", label, why)
				}
				want := MagicSets
				switch {
				case !selects:
					want = SemiNaive
				case strings.Contains(rest, "separable: yes"):
					want = Separable
				}
				if res.Stats.Strategy != want {
					t.Errorf("%s: Auto ran %s, want %s by its report:\n%s", label, res.Stats.Strategy, want, why)
				}
			}
		}
	})
}
