package sepdl

// Parallel-vs-sequential equivalence at the public API: every strategy, on
// every corpus entry and testdata program, must return byte-identical
// sorted answers whether the engine evaluates with one worker or many.
// Budget aborts and deadlines must surface the same typed errors either
// way.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// parallelPair builds two engines over the same program and facts: one
// pinned to sequential evaluation, one with eight workers.
func parallelPair(t *testing.T, program, facts string) (seq, par *Engine) {
	t.Helper()
	seq = New(WithParallelism(1))
	par = New(WithParallelism(8))
	for _, e := range []*Engine{seq, par} {
		if err := e.LoadProgram(program); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadFacts(facts); err != nil {
			t.Fatal(err)
		}
	}
	return seq, par
}

// checkQueryParity runs one query on both engines under one strategy and
// requires parity: both fail (scope rejections stay scope rejections) or
// both succeed with byte-identical sorted output.
func checkQueryParity(t *testing.T, seq, par *Engine, query string, opts ...QueryOption) {
	t.Helper()
	sRes, sErr := seq.Query(query, opts...)
	pRes, pErr := par.Query(query, opts...)
	if (sErr == nil) != (pErr == nil) {
		t.Errorf("%s: error parity broken: sequential err = %v, parallel err = %v", query, sErr, pErr)
		return
	}
	if sErr != nil {
		return
	}
	if sRes.String() != pRes.String() {
		t.Errorf("%s: parallel = %s, sequential = %s", query, pRes, sRes)
	}
}

func TestParallelMatchesSequentialCorpus(t *testing.T) {
	for _, entry := range corpus {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			seq, par := parallelPair(t, entry.program, entry.facts)
			for _, query := range entry.queries {
				for _, s := range servedStrategies {
					checkQueryParity(t, seq, par, query, WithStrategy(s))
				}
				checkQueryParity(t, seq, par, query) // Auto
			}
		})
	}
}

func TestParallelMatchesSequentialTestdata(t *testing.T) {
	prog, err := os.ReadFile("testdata/buys.dl")
	if err != nil {
		t.Fatal(err)
	}
	facts, err := os.ReadFile("testdata/buys_facts.dl")
	if err != nil {
		t.Fatal(err)
	}
	seq, par := parallelPair(t, string(prog), string(facts))
	for _, query := range []string{
		`buys(tom, Y)?`, `buys(sue, Y)?`, `buys(X, radio)?`, `buys(harry, radio)?`,
	} {
		for _, s := range []Strategy{Auto, Separable, MagicSets, SemiNaive} {
			checkQueryParity(t, seq, par, query, WithStrategy(s))
		}
	}

	nonsep, err := os.ReadFile("testdata/nonseparable.dl")
	if err != nil {
		t.Fatal(err)
	}
	seq, par = parallelPair(t, string(nonsep), `
sibling(a, b).
parent(p1, a). parent(p1, c). parent(p2, b). parent(p2, d).
`)
	for _, query := range []string{`sg(a, Y)?`, `sg(X, Y)?`, `sg(c, d)?`} {
		for _, s := range []Strategy{Auto, MagicSets, SemiNaive, Naive} {
			checkQueryParity(t, seq, par, query, WithStrategy(s))
		}
	}
}

// TestParallelMatchesSequentialMultiClass drives the product evaluator on
// the benchmark's 4-class family through the public API. n = 17 gives 65
// facts, past the support-database floor below which the classes' closures
// stay sequential.
func TestParallelMatchesSequentialMultiClass(t *testing.T) {
	const n, c = 17, 4
	program := `
t(X1, X2, X3, X4) :- e1(X1, W) & t(W, X2, X3, X4).
t(X1, X2, X3, X4) :- e2(X2, W) & t(X1, W, X3, X4).
t(X1, X2, X3, X4) :- e3(X3, W) & t(X1, X2, W, X4).
t(X1, X2, X3, X4) :- e4(X4, W) & t(X1, X2, X3, W).
t(X1, X2, X3, X4) :- t0(X1, X2, X3, X4).
`
	var sb strings.Builder
	ends := make([]string, 0, c)
	for i := 1; i <= c; i++ {
		for j := 1; j < n; j++ {
			fmt.Fprintf(&sb, "e%d(c%dv%d, c%dv%d).\n", i, i, j, i, j+1)
		}
		ends = append(ends, fmt.Sprintf("c%dv%d", i, n))
	}
	fmt.Fprintf(&sb, "t0(%s).\n", strings.Join(ends, ", "))
	seq, par := parallelPair(t, program, sb.String())

	for _, query := range []string{
		`t(c1v1, Y2, Y3, Y4)?`,
		`t(c1v1, c2v2, Y3, Y4)?`,
		`t(X, Y, Z, c4v1)?`,
	} {
		for _, s := range []Strategy{Auto, Separable, SemiNaive} {
			checkQueryParity(t, seq, par, query, WithStrategy(s))
		}
	}
	// Sanity: the driver-selection query really has its product shape.
	res, err := par.Query(`t(c1v1, Y2, Y3, Y4)?`, WithStrategy(Separable))
	if err != nil {
		t.Fatal(err)
	}
	if want := n * n * n; res.Len() != want {
		t.Errorf("answers = %d, want %d", res.Len(), want)
	}
}

// TestParallelBudgetAbortParity reuses the per-strategy budget cases: a
// parallel engine must abort with the same typed error, limit kind, and
// strategy tag as the sequential engines in budget_api_test.go. The
// baselines run on the parallel engine's snapshot.
func TestParallelBudgetAbortParity(t *testing.T) {
	e := New(WithParallelism(8))
	if err := e.LoadProgram(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	const n = 30
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&sb, "friend(a%02d, a%02d).\n", i, i+1)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "perfectFor(a%02d, g%02d).\n", i, i)
	}
	if err := e.LoadFacts(sb.String()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range budgetCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Unbudgeted sanity first.
			if _, err := tc.run(ctx, e, tc.query, Budget{}); err != nil {
				t.Fatalf("unbudgeted: %v", err)
			}
			_, err := tc.run(ctx, e, tc.query, Budget{MaxTuples: 1})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			var re *ResourceError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *ResourceError", err)
			}
			if re.Limit != LimitTuples {
				t.Errorf("Limit = %s, want %s", re.Limit, LimitTuples)
			}
			if re.Strategy != tc.name {
				t.Errorf("Strategy = %s, want %s", re.Strategy, tc.name)
			}
		})
	}
}
