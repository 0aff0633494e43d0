package sepdl

// Engine-level tests for the resource-governance API: every strategy must
// honor budgets and context cancellation promptly, leave the engine's
// database untouched on abort, leak no goroutines, and never let an
// internal panic escape QueryCtx.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sepdl/internal/ast"
	internalbudget "sepdl/internal/budget"
	"sepdl/internal/counting"
	"sepdl/internal/database"
	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// abortSlack bounds how long a budgeted, canceled or expired query may run
// past its cut-off. It leaves headroom for the race detector on a loaded
// machine and is still far shorter than the 1200-node naive runs the
// mid-evaluation tests cut off.
const abortSlack = time.Second

// chainEngine builds the paper's buys program over a friend chain
// a00 -> a01 -> ... with a perfectFor fact at every node, the workload
// where Separable materializes O(n) tuples and Magic Ω(n²).
func chainEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := New()
	if err := e.LoadProgram(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&sb, "friend(a%02d, a%02d).\n", i, i+1)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "perfectFor(a%02d, g%02d).\n", i, i)
	}
	if err := e.LoadFacts(sb.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

// budgetCase answers a chain query under a context and budget with one
// served strategy or one baseline, rendering the answers as Result.String
// does.
type budgetCase struct {
	name  string
	query string
	run   func(ctx context.Context, e *Engine, query string, b Budget) (string, error)
}

func servedCase(s Strategy, query string) budgetCase {
	return budgetCase{string(s), query, func(ctx context.Context, e *Engine, query string, b Budget) (string, error) {
		res, err := e.QueryCtx(ctx, query, WithStrategy(s), WithBudget(b))
		if err != nil {
			return "", err
		}
		return res.String(), nil
	}}
}

func baselineCase(bl baseline, query string) budgetCase {
	return budgetCase{bl.name, query, bl.run}
}

// budgetCases pairs every served strategy and every baseline with a chain
// query in its scope (Aho-Ullman needs the selection on the stable column;
// g29 is bought by the whole chain).
var budgetCases = []budgetCase{
	servedCase(Separable, `buys(a00, Y)?`),
	servedCase(MagicSets, `buys(a00, Y)?`),
	servedCase(MagicSetsSup, `buys(a00, Y)?`),
	baselineCase(baselineCounting, `buys(a00, Y)?`),
	baselineCase(baselineHN, `buys(a00, Y)?`),
	baselineCase(baselineAho, `buys(X, g29)?`),
	baselineCase(baselineTabling, `buys(a00, Y)?`),
	servedCase(SemiNaive, `buys(a00, Y)?`),
	servedCase(Naive, `buys(a00, Y)?`),
}

func dumpFacts(t *testing.T, e *Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteFacts(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTupleBudgetEveryStrategy(t *testing.T) {
	e := chainEngine(t, 30)
	before := dumpFacts(t, e)
	ctx := context.Background()
	for _, tc := range budgetCases {
		t.Run(tc.name, func(t *testing.T) {
			// Sanity: the strategy can answer this query when unbudgeted.
			full, err := tc.run(ctx, e, tc.query, Budget{})
			if err != nil {
				t.Fatalf("unbudgeted: %v", err)
			}
			if full == "{}" {
				t.Fatal("unbudgeted query returned no answers")
			}

			start := time.Now()
			_, err = tc.run(ctx, e, tc.query, Budget{MaxTuples: 1})
			elapsed := time.Since(start)
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
				t.Errorf("Strategy = %q, want %q", re.Strategy, tc.name)
			}
			if elapsed > abortSlack {
				t.Errorf("budgeted query took %v, want < %v", elapsed, abortSlack)
			}
			if got := dumpFacts(t, e); got != before {
				t.Error("aborted query modified the engine's base facts")
			}
			// The engine must still answer correctly after an abort.
			again, err := tc.run(ctx, e, tc.query, Budget{})
			if err != nil {
				t.Fatalf("after abort: %v", err)
			}
			if again != full {
				t.Errorf("after abort = %s, want %s", again, full)
			}
		})
	}
}

func TestQueryCtxCanceledEveryStrategy(t *testing.T) {
	e := chainEngine(t, 30)
	before := dumpFacts(t, e)
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range budgetCases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := tc.run(ctx, e, tc.query, Budget{})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("err = %v, want ErrBudgetExceeded match too", err)
			}
			if elapsed > abortSlack {
				t.Errorf("canceled query took %v, want < %v", elapsed, abortSlack)
			}
			if got := dumpFacts(t, e); got != before {
				t.Error("canceled query modified the engine's base facts")
			}
		})
	}
}

func TestQueryCtxDeadlineMidEvaluation(t *testing.T) {
	// A chain long enough that naive evaluation runs far beyond the
	// deadline, so the cutoff happens inside the fixpoint, exercising the
	// round- and tick-level polls rather than the pre-flight check.
	e := chainEngine(t, 1200)
	start := time.Now()
	_, err := e.Query(`buys(a00, Y)?`, WithStrategy(Naive), WithDeadline(10*time.Millisecond))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitDeadline {
		t.Fatalf("err = %#v, want deadline ResourceError", err)
	}
	if elapsed > 10*time.Millisecond+abortSlack {
		t.Errorf("deadline overshoot: query took %v", elapsed)
	}
}

func TestQueryCtxCancelMidEvaluation(t *testing.T) {
	e := chainEngine(t, 1200)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.QueryCtx(ctx, `buys(a00, Y)?`, WithStrategy(Naive))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Millisecond+abortSlack {
		t.Errorf("cancellation overshoot: query took %v", elapsed)
	}
}

// TestWithMaxIterationsReturnsResourceError checks that a round bound
// trips as a rounds ResourceError naming the strategy, whichever strategy
// runs the rounds.
func TestWithMaxIterationsReturnsResourceError(t *testing.T) {
	e := chainEngine(t, 30)
	for _, s := range []Strategy{SemiNaive, MagicSets, Separable} {
		_, err := e.Query(`buys(a00, Y)?`, WithStrategy(s), WithBudget(Budget{MaxRounds: 2}))
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", s, err)
		}
		var re *ResourceError
		if !errors.As(err, &re) || re.Limit != LimitRounds || re.Max != 2 || re.Strategy != string(s) {
			t.Fatalf("%s: err = %#v, want rounds ResourceError with Max=2", s, err)
		}
	}
}

func TestBudgetRoundsAndBytes(t *testing.T) {
	e := chainEngine(t, 30)
	_, err := e.Query(`buys(a00, Y)?`, WithStrategy(SemiNaive), WithBudget(Budget{MaxRounds: 2}))
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitRounds {
		t.Fatalf("rounds: err = %v, want rounds ResourceError", err)
	}
	_, err = e.Query(`buys(a00, Y)?`, WithStrategy(SemiNaive), WithBudget(Budget{MaxBytes: 16}))
	if !errors.As(err, &re) || re.Limit != LimitBytes {
		t.Fatalf("bytes: err = %v, want bytes ResourceError", err)
	}
}

func TestQueryCtxExpiredOnEDBQuery(t *testing.T) {
	// The pre-flight check covers the direct EDB answer path too.
	e := chainEngine(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryCtx(ctx, `friend(a00, Y)?`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryRecoversInternalPanic(t *testing.T) {
	e := chainEngine(t, 5)
	testHookEval = func() { panic("boom") }
	defer func() { testHookEval = nil }()
	_, err := e.Query(`buys(a00, Y)?`, WithStrategy(SemiNaive))
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	for _, want := range []string{"internal panic", "boom", "seminaive", "buys(a00, Y)?"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestQueryRecoversEscapedAbort(t *testing.T) {
	// A budget abort that escapes a path without its own Guard must still
	// surface as the typed error, not as an internal-panic report.
	e := chainEngine(t, 5)
	want := &ResourceError{Limit: LimitTuples, Consumed: 2, Max: 1}
	testHookEval = func() { internalbudget.Abort(want) }
	defer func() { testHookEval = nil }()
	_, err := e.Query(`buys(a00, Y)?`, WithStrategy(SemiNaive))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want the escaped ResourceError", err)
	}
}

// Paper §4 adversarial inputs: under one shared tuple budget, the
// strategies whose intermediate results blow up must trip it while
// Separable completes.

func TestAdversarialMagicTripsBudgetSeparableCompletes(t *testing.T) {
	// Chain of 60: Magic materializes buys(ai, gj) for all i <= j — about
	// n²/2 = 1800 tuples — where Separable carries O(n).
	e := chainEngine(t, 60)
	const maxT = 500
	res, err := e.Query(`buys(a00, Y)?`, WithStrategy(Separable), WithBudget(Budget{MaxTuples: maxT}))
	if err != nil {
		t.Fatalf("separable under budget: %v", err)
	}
	if res.Len() != 60 {
		t.Fatalf("separable answers = %d, want 60", res.Len())
	}
	for _, s := range []Strategy{MagicSets, MagicSetsSup} {
		_, err := e.Query(`buys(a00, Y)?`, WithStrategy(s), WithBudget(Budget{MaxTuples: maxT}))
		var re *ResourceError
		if !errors.As(err, &re) || re.Limit != LimitTuples {
			t.Errorf("%s: err = %v, want tuples ResourceError", s, err)
		}
	}
}

func TestAdversarialCountingTripsBudgetSeparableCompletes(t *testing.T) {
	// Two cyclic driving relations: the count phase's derivation-path index
	// doubles the count facts every level (the Ω(2ⁿ) blowup), while the
	// Separable carry saturates on the two constants. Counting is a library
	// baseline, so it runs as a package with its level bound out of the way.
	e := New()
	if err := e.LoadProgram(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadFacts(`
friend(a, b). friend(b, a).
idol(a, b). idol(b, a).
perfectFor(a, g). perfectFor(b, g).
`); err != nil {
		t.Fatal(err)
	}
	const maxT = 500
	res, err := e.Query(`buys(a, Y)?`, WithStrategy(Separable), WithBudget(Budget{MaxTuples: maxT}))
	if err != nil {
		t.Fatalf("separable under budget: %v", err)
	}
	if res.String() != "{(g)}" {
		t.Fatalf("separable = %s, want {(g)}", res)
	}
	countingUnbounded := baseline{"counting", func(prog *ast.Program, db *database.Database, q ast.Atom, bud *internalbudget.Budget) (*rel.Relation, error) {
		return counting.Answer(prog, db, q, counting.Options{MaxLevels: 1 << 20, Budget: bud})
	}}
	_, err = countingUnbounded.run(context.Background(), e, `buys(a, Y)?`, Budget{MaxTuples: maxT})
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitTuples {
		t.Fatalf("counting: err = %v, want tuples ResourceError", err)
	}
}

func TestMaterializeCtxBudget(t *testing.T) {
	e := chainEngine(t, 30)
	if _, err := e.MaterializeCtx(context.Background(), WithBudget(Budget{MaxTuples: 1})); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.MaterializeCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A view built under a context stays usable after that context dies.
	ctx2, cancel2 := context.WithCancel(context.Background())
	v, err := e.MaterializeCtx(ctx2, WithBudget(Budget{MaxTuples: 1 << 20}))
	cancel2()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddFact("friend", "zz", "a00"); err != nil {
		t.Fatalf("AddFact after build context died: %v", err)
	}
	if err := v.Broken(); err != nil {
		t.Fatalf("view broken: %v", err)
	}
}
