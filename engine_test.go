package sepdl

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

const example11 = `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`

const example11Facts = `
friend(tom, dick). friend(dick, harry).
idol(tom, harry).
perfectFor(harry, radio). perfectFor(dick, tv). perfectFor(alice, car).
`

func newExample11(t *testing.T) *Engine {
	t.Helper()
	return load(t, New(), example11, example11Facts)
}

func TestQuickstartFlow(t *testing.T) {
	e := newExample11(t)
	res, err := e.Query(`buys(tom, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != Separable {
		t.Errorf("Auto picked %s, want separable", res.Stats.Strategy)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "radio" || rows[1][0] != "tv" {
		t.Fatalf("Rows = %v", rows)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "Y" {
		t.Fatalf("Columns = %v", res.Columns)
	}
}

func TestAutoFallsBackToMagic(t *testing.T) {
	e := New()
	// Nonlinear: not separable.
	if err := e.LoadProgram(`
t(X, Y) :- t(X, W) & t(W, Y).
t(X, Y) :- edge(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	e.LoadFacts(`edge(a, b). edge(b, c).`)
	res, err := e.Query(`t(a, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != MagicSets {
		t.Errorf("Auto picked %s, want magic", res.Stats.Strategy)
	}
	if res.Len() != 2 {
		t.Errorf("answers = %s", res)
	}
}

func TestAutoFallsBackToSemiNaive(t *testing.T) {
	e := newExample11(t)
	res, err := e.Query(`buys(X, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != SemiNaive {
		t.Errorf("Auto picked %s, want seminaive", res.Stats.Strategy)
	}
	if res.Len() != 6 {
		t.Errorf("answers = %d: %s", res.Len(), res)
	}
}

func TestEDBQuery(t *testing.T) {
	e := newExample11(t)
	res, err := e.Query(`friend(tom, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0][0] != "dick" {
		t.Fatalf("Rows = %v", rows)
	}
}

func TestGroundQueryTrue(t *testing.T) {
	e := newExample11(t)
	res, err := e.Query(`buys(tom, radio)?`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.True() {
		t.Fatalf("buys(tom, radio) should be true; got %s", res)
	}
	res, err = e.Query(`buys(alice, radio)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.True() {
		t.Fatal("buys(alice, radio) should be false")
	}
}

func TestStatsExposed(t *testing.T) {
	e := newExample11(t)
	res, err := e.Query(`buys(tom, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RelationSizes["seen1"] == 0 {
		t.Errorf("missing seen1 in %v", st.RelationSizes)
	}
	if st.MaxRelation == "" || st.MaxRelationSize == 0 {
		t.Errorf("max relation not reported: %+v", st)
	}
	if st.Duration <= 0 {
		t.Error("duration not measured")
	}
}

// TestExplain covers Explain's three parts: the strategy line (Auto's
// pick, a forced strategy, or the base-predicate lookup), check's
// separability findings, and the Figure 2 program under Separable only.
func TestExplain(t *testing.T) {
	e := newExample11(t)
	for _, c := range []struct {
		query   string
		opts    []QueryOption
		want    []string
		wantNot []string
	}{
		{query: `buys(tom, Y)?`, want: []string{
			"strategy: separable (chosen by auto)\n",
			"info[SEP051]: buys/2 is a separable recursion with 1 equivalence class(es)",
			"info[SEP050]: strategy applicability for query buys(tom, Y)",
			"separable: yes (full selection (class fully bound))",
			"carry1(tom);\n", "ans(V2) := seen2(V2);\n",
		}},
		{query: `buys(X, Y)?`, want: []string{
			"strategy: seminaive (chosen by auto)\n",
			"separable: no (the query has no selection constants)",
		}, wantNot: []string{"carry1"}},
		{query: `buys(tom, Y)?`, opts: []QueryOption{WithStrategy(MagicSets)}, want: []string{
			"strategy: magic (forced)\n", "separable: yes",
		}, wantNot: []string{"carry1"}},
		{query: `friend(tom, Y)?`, want: []string{"friend is a base predicate: direct index lookup\n"}, wantNot: []string{"strategy"}},
	} {
		got, err := e.Explain(c.query, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !strings.Contains(got, want) {
				t.Errorf("Explain(%s) = %q, want contains %q", c.query, got, want)
			}
		}
		for _, not := range c.wantNot {
			if strings.Contains(got, not) {
				t.Errorf("Explain(%s) = %q, want no %q", c.query, got, not)
			}
		}
	}
	if _, err := e.Explain(`nope(`); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := e.Explain(`buys(tom, Y)?`, WithStrategy("bogus")); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("unknown strategy: err = %v, want ErrUnknownStrategy", err)
	}
}

// TestAnalyzeSeparability checks the Definition 2.4 analysis that Explain
// reports: the classes of a separable recursion, the failed condition of
// same-generation under the strict analysis and its classes under the
// relaxed one, and no analysis at all for a base predicate.
func TestAnalyzeSeparability(t *testing.T) {
	e := newExample11(t)
	report, err := e.Explain(`buys(tom, Y)?`)
	if err != nil || !strings.Contains(report, "equivalence class") {
		t.Fatalf("report = %q, err = %v", report, err)
	}
	report, err = e.Explain(`friend(tom, Y)?`)
	if err != nil || strings.Contains(report, "separable recursion") {
		t.Fatalf("EDB predicate analysed: %q, err = %v", report, err)
	}

	sg := New()
	if err := sg.LoadProgram(`
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U) & sg(U, V) & down(V, Y).
`); err != nil {
		t.Fatal(err)
	}
	report, err = sg.Explain(`sg(a, Y)?`)
	if err != nil || strings.Contains(report, "is a separable recursion") || !strings.Contains(report, "condition 4") {
		t.Fatalf("strict same-generation report = %q, err = %v", report, err)
	}
	report, err = sg.Explain(`sg(a, Y)?`, WithRelaxedConnectivity())
	if err != nil || !strings.Contains(report, "sg/2 is a separable recursion") {
		t.Fatalf("relaxed same-generation report = %q, err = %v", report, err)
	}
}

// TestCompilePlan checks the Figure 2 program Explain prints: instantiated
// with the query's constants when the query runs Separable, absent when it
// has no selection, and never for a query that does not parse.
func TestCompilePlan(t *testing.T) {
	e := newExample11(t)
	out, err := e.Explain(`buys(tom, Y)?`, WithStrategy(Separable))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "carry1(tom);") {
		t.Fatalf("plan = %q", out)
	}
	out, err = e.Explain(`buys(X, Y)?`)
	if err != nil || strings.Contains(out, "carry1") {
		t.Fatalf("no-selection plan = %q, err = %v", out, err)
	}
	if _, err := e.Explain(`nope(`); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestExplainNonSeparable(t *testing.T) {
	e := New()
	e.LoadProgram(`
t(X, Y) :- t(X, W) & t(W, Y).
t(X, Y) :- edge(X, Y).
`)
	got, err := e.Explain(`t(a, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "strategy: magic (chosen by auto)\n") || !strings.Contains(got, "warning[SEP030]: t is not a separable recursion") {
		t.Errorf("Explain = %q", got)
	}
}

func TestRelaxedConnectivityOption(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`
t(X, Y) :- a(X, W) & t(W, Z) & b(Z, Y).
t(X, Y) :- t0(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	e.LoadFacts(`a(x, w). t0(w, m). b(m, y).`)
	// Strict separable must refuse...
	if _, err := e.Query(`t(x, Y)?`, WithStrategy(Separable)); err == nil {
		t.Fatal("condition-4 violation accepted without relaxation")
	}
	// ...relaxed must work and agree with semi-naive.
	res, err := e.Query(`t(x, Y)?`, WithStrategy(Separable), WithRelaxedConnectivity())
	if err != nil {
		t.Fatal(err)
	}
	sn, err := e.Query(`t(x, Y)?`, WithStrategy(SemiNaive))
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != sn.String() {
		t.Fatalf("relaxed %s != seminaive %s", res, sn)
	}
	// Auto with relaxation picks Separable too.
	res, err = e.Query(`t(x, Y)?`, WithRelaxedConnectivity())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != Separable {
		t.Errorf("Auto+relaxed picked %s", res.Stats.Strategy)
	}
}

// TestWithMaxIterations checks that Budget.MaxRounds, the one round bound,
// cuts off every strategy that runs rounds, Separable's carry loops
// included.
func TestWithMaxIterations(t *testing.T) {
	e := newExample11(t)
	for _, s := range []Strategy{SemiNaive, Naive, MagicSets, MagicSetsSup, Separable} {
		if _, err := e.Query(`buys(tom, Y)?`, WithStrategy(s), WithBudget(Budget{MaxRounds: 1})); err == nil {
			t.Errorf("%s: round bound ignored", s)
		}
	}
}

// TestUnknownStrategy checks that every entry point rejects a strategy the
// engine does not serve before evaluating anything: on IDB and EDB
// queries, batches and prepared forms alike, and without a plan-cache
// entry per distinct name.
func TestUnknownStrategy(t *testing.T) {
	e := newExample11(t)
	ctx := context.Background()
	for _, s := range []Strategy{"bogus", "counting", "hn", "aho", "tabling", Materialized} {
		for _, query := range []string{`buys(tom, Y)?`, `friend(tom, Y)?`} {
			if _, err := e.Query(query, WithStrategy(s)); !errors.Is(err, ErrUnknownStrategy) {
				t.Errorf("Query(%s) [%s]: err = %v, want ErrUnknownStrategy", query, s, err)
			}
			if _, err := e.QueryBatch(ctx, []string{query}, WithStrategy(s)); !errors.Is(err, ErrUnknownStrategy) {
				t.Errorf("QueryBatch(%s) [%s]: err = %v, want ErrUnknownStrategy", query, s, err)
			}
			if _, err := e.Prepare(query, WithStrategy(s)); !errors.Is(err, ErrUnknownStrategy) {
				t.Errorf("Prepare(%s) [%s]: err = %v, want ErrUnknownStrategy", query, s, err)
			}
		}
	}
	st := e.progState()
	st.mu.Lock()
	before := len(st.plans)
	st.mu.Unlock()
	for i := 0; i < 1000; i++ {
		e.Query(`buys(tom, Y)?`, WithStrategy(Strategy(fmt.Sprintf("bogus%d", i))))
	}
	st.mu.Lock()
	after := len(st.plans)
	st.mu.Unlock()
	if after != before {
		t.Errorf("1000 unknown strategies grew the plan cache from %d to %d entries", before, after)
	}
}

func TestLoadProgramValidates(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`t(X, Y) :- e(X).`); err == nil {
		t.Fatal("unsafe rule accepted")
	}
	if err := e.LoadProgram(`p(X) :- q(X, X).`); err != nil {
		t.Fatal(err)
	}
	// Conflicting arity across loads must be rejected and leave the
	// program unchanged.
	if err := e.LoadProgram(`p(X, Y) :- r(X, Y).`); err == nil {
		t.Fatal("conflicting arity across loads accepted")
	}
	if !strings.Contains(e.ProgramText(), "q(X, X)") {
		t.Fatal("failed load corrupted program")
	}
}

func TestClearProgram(t *testing.T) {
	e := newExample11(t)
	e.ClearProgram()
	if e.ProgramText() != "" {
		t.Fatal("program not cleared")
	}
	// Facts survive.
	if e.NumFacts() == 0 {
		t.Fatal("facts lost on ClearProgram")
	}
}

func TestEngineIntrospection(t *testing.T) {
	e := newExample11(t)
	preds := e.Predicates()
	if len(preds) != 3 {
		t.Fatalf("Predicates = %v", preds)
	}
	if e.NumFacts() != 6 {
		t.Fatalf("NumFacts = %d", e.NumFacts())
	}
	if e.DistinctConstants() != 7 {
		t.Fatalf("DistinctConstants = %d", e.DistinctConstants())
	}
}

func TestAddFact(t *testing.T) {
	e := newExample11(t)
	if err := e.AddFact("friend", "harry", "alice"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`buys(tom, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // now reaches alice's car
		t.Fatalf("answers = %s", res)
	}
}

func TestQueryParseError(t *testing.T) {
	e := newExample11(t)
	if _, err := e.Query(`buys(tom,`); err == nil {
		t.Fatal("bad query accepted")
	}
}

// The paper's comparison algorithms are library baselines, not served
// strategies; the tests below run them as packages on an engine's facts.

func TestCountingAndHNStrategiesSurfaceDivergence(t *testing.T) {
	e := New()
	e.LoadProgram(example11)
	e.LoadFacts(`friend(a, b). friend(b, a). perfectFor(a, thing).`)
	ctx := context.Background()
	if _, err := baselineCounting.run(ctx, e, `buys(a, Y)?`, Budget{}); err == nil {
		t.Fatal("counting should diverge on cyclic data")
	}
	if _, err := baselineHN.run(ctx, e, `buys(a, Y)?`, Budget{}); err == nil {
		t.Fatal("HN should diverge on cyclic data")
	}
	// But separable answers fine.
	res, err := e.Query(`buys(a, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("answers = %s", res)
	}
}

func TestAhoUllmanStrategy(t *testing.T) {
	e := newExample11(t)
	ctx := context.Background()
	res, err := baselineAho.run(ctx, e, `buys(X, radio)?`, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := e.Query(`buys(X, radio)?`, WithStrategy(SemiNaive))
	if err != nil {
		t.Fatal(err)
	}
	if res != sn.String() {
		t.Fatalf("aho %s != seminaive %s", res, sn)
	}
	// Class-column selections are outside [AU79]'s scope.
	if _, err := baselineAho.run(ctx, e, `buys(tom, Y)?`, Budget{}); err == nil {
		t.Fatal("aho accepted a class-column selection")
	}
}

func TestTablingStrategy(t *testing.T) {
	e := newExample11(t)
	res, err := baselineTabling.run(context.Background(), e, `buys(tom, Y)?`, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := e.Query(`buys(tom, Y)?`, WithStrategy(SemiNaive))
	if err != nil {
		t.Fatal(err)
	}
	if res != sn.String() {
		t.Fatalf("tabling %s != seminaive %s", res, sn)
	}
}

func TestSupplementaryMagicStrategy(t *testing.T) {
	e := newExample11(t)
	basic, err := e.Query(`buys(tom, Y)?`, WithStrategy(MagicSets))
	if err != nil {
		t.Fatal(err)
	}
	sup, err := e.Query(`buys(tom, Y)?`, WithStrategy(MagicSetsSup))
	if err != nil {
		t.Fatal(err)
	}
	if basic.String() != sup.String() {
		t.Fatalf("basic %s != supplementary %s", basic, sup)
	}
	// Supplementary materializes sup predicates.
	found := false
	for name := range sup.Stats.RelationSizes {
		if strings.HasPrefix(name, "sup@") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sup relations in %v", sup.Stats.RelationSizes)
	}
}

func TestNegationThroughEngine(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`
reach(X) :- start(X).
reach(Y) :- reach(X) & edge(X, Y).
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
unreach(X) :- node(X) & not reach(X).
`); err != nil {
		t.Fatal(err)
	}
	e.LoadFacts(`start(a). edge(a, b). edge(c, d).`)
	res, err := e.Query(`unreach(X)?`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "c" || rows[1][0] != "d" {
		t.Fatalf("unreach = %v", rows)
	}
	// A selection on a negation-using predicate: Auto must not pick
	// Separable (the definition has negation) but still answer correctly.
	res, err = e.Query(`unreach(c)?`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.True() {
		t.Fatal("unreach(c) should hold")
	}
	if res.Stats.Strategy == Separable {
		t.Fatalf("Auto picked Separable for a negated definition")
	}
}

func TestNonStratifiableSurfacesError(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`win(X) :- move(X, Y) & not win(Y).`); err != nil {
		t.Fatal(err)
	}
	e.LoadFacts(`move(a, b).`)
	if _, err := e.Query(`win(X)?`); err == nil {
		t.Fatal("non-stratifiable program evaluated")
	}
}

func TestMaterializedView(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, W) & path(W, Y).
`); err != nil {
		t.Fatal(err)
	}
	e.LoadFacts(`edge(a, b).`)
	v, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Query(`path(a, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Stats.Strategy != Materialized {
		t.Fatalf("initial view: %s via %s", res, res.Stats.Strategy)
	}
	// Incremental insert through the view.
	if _, err := v.AddFact("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	res, err = v.Query(`path(a, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "b" || rows[1][0] != "c" {
		t.Fatalf("after insert: %v", rows)
	}
	// The engine's own database is unaffected (snapshot semantics).
	base, err := e.Query(`path(a, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 1 {
		t.Fatalf("engine saw view insert: %s", base)
	}
}

func TestMaterializeRejectsNegation(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`p(X) :- q(X) & not r(X).`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Materialize(); err == nil {
		t.Fatal("negated program materialized")
	}
}

func TestMaterializedViewDeletion(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, W) & path(W, Y).
`); err != nil {
		t.Fatal(err)
	}
	e.LoadFacts(`edge(a, b). edge(b, c). edge(a, c).`)
	v, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.DeleteFact("edge", "a", "c"); err != nil {
		t.Fatal(err)
	}
	res, err := v.Query(`path(a, c)?`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.True() {
		t.Fatal("path(a,c) should survive via the chain")
	}
	if _, err := v.DeleteFact("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	res, err = v.Query(`path(a, c)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.True() {
		t.Fatal("path(a,c) should be gone")
	}
}

func TestWhy(t *testing.T) {
	e := newExample11(t)
	out, err := e.Why(`buys(tom, radio)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"buys(tom, radio)", "[base fact]", "perfectFor(harry, radio)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Why missing %q:\n%s", want, out)
		}
	}
	if _, err := e.Why(`buys(alice, radio)`); err == nil {
		t.Fatal("Why explained a false fact")
	}

	// examples/streaming's program: the base rule comes first, so one naive
	// round would chain links through path tuples it derived itself.
	s := New()
	if err := s.LoadProgram(`
		path(X, Y) :- link(X, Y).
		path(X, Y) :- link(X, W) & path(W, Y).
	`); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadFacts(`link(r1, r2). link(r2, r3). link(r3, r4). link(r4, r5). link(r2, r4).`); err != nil {
		t.Fatal(err)
	}
	out, err = s.Why(`path(r1, r5)`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "link(r4, r5)   [base fact]"; !strings.Contains(out, want) {
		t.Errorf("Why missing %q:\n%s", want, out)
	}
}

func TestWhyCtxBudget(t *testing.T) {
	e := newExample11(t)

	// The recording fixpoint is evaluation-shaped work: a canceled
	// context must abort it with the usual typed error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.WhyCtx(ctx, `buys(tom, radio)`); !errors.Is(err, context.Canceled) {
		t.Fatalf("WhyCtx on canceled ctx: got %v, want context.Canceled", err)
	}

	// A starvation budget must trip inside the explanation build.
	_, err := e.WhyCtx(context.Background(), `buys(tom, radio)`, WithBudget(Budget{MaxTuples: 1}))
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("WhyCtx with MaxTuples=1: got %v, want *ResourceError", err)
	}

	// A generous budget changes nothing about the answer.
	out, err := e.WhyCtx(context.Background(), `buys(tom, radio)`, WithBudget(Budget{MaxTuples: 100000}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "buys(tom, radio)") {
		t.Errorf("WhyCtx output missing the fact:\n%s", out)
	}
}

// TestWhyCtxDeadlineBoundsExplain: each d(v_i+1) cites d(v_i) twice, so
// the tree doubles per link; the deadline must cut its construction short,
// not only the fixpoint before it.
func TestWhyCtxDeadlineBoundsExplain(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`d(X) :- s(X). d(Y) :- d(X) & d(X) & e(X, Y).`); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("s", "v0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := e.AddFact("e", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.WhyCtx(ctx, `d(v40)`); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WhyCtx on a 2^40-node tree: got %v, want context.DeadlineExceeded", err)
	}
}

// TestWhyBudgetBoundsExplain: the same doubling tree over 18 links has
// 2^18 nodes; each node counts as a derived tuple, so MaxTuples stops its
// construction without a deadline.
func TestWhyBudgetBoundsExplain(t *testing.T) {
	e := New()
	if err := e.LoadProgram(`d(X) :- s(X). d(Y) :- d(X) & d(X) & e(X, Y).`); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("s", "v0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 18; i++ {
		if err := e.AddFact("e", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.WhyCtx(context.Background(), `d(v18)`, WithBudget(Budget{MaxTuples: 10000}))
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitTuples {
		t.Fatalf("WhyCtx on a 2^18-node tree with MaxTuples=10000: got %v, want a tuples *ResourceError", err)
	}
}

func TestViewEDBQuery(t *testing.T) {
	e := New()
	e.LoadProgram(`path(X, Y) :- edge(X, Y).`)
	e.LoadFacts(`edge(a, b).`)
	v, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Query(`edge(a, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("edge query through view: %s", res)
	}
	// Builtin facts are rejected at the view boundary.
	if _, err := v.AddFact("neq", "a", "b"); err == nil {
		t.Fatal("builtin fact accepted by view")
	}
}
