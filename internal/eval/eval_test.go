package eval

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/parser"
	"sepdl/internal/stats"
)

func mustProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustLoad(t *testing.T, db *database.Database, facts string) {
	t.Helper()
	fs, err := parser.Facts(facts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(fs); err != nil {
		t.Fatal(err)
	}
}

func answerDump(t *testing.T, prog *ast.Program, db *database.Database, query string, opts Options) string {
	t.Helper()
	view, err := Run(prog, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := Answer(view, q)
	if err != nil {
		t.Fatal(err)
	}
	return ans.Dump(db.Syms)
}

const tcProg = `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, W) & path(W, Y).
`

func TestTransitiveClosureChain(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, c). edge(c, d).`)
	got := answerDump(t, mustProgram(t, tcProg), db, `path(a, Y)?`, Options{})
	if got != "{(b) (c) (d)}" {
		t.Fatalf("answers = %s", got)
	}
}

func TestTransitiveClosureCycleTerminates(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, c). edge(c, a).`)
	got := answerDump(t, mustProgram(t, tcProg), db, `path(a, Y)?`, Options{})
	if got != "{(a) (b) (c)}" {
		t.Fatalf("answers = %s", got)
	}
}

// viewDump renders every IDB relation of a finished view, sorted by
// predicate, in the relations' own sorted Dump format — a canonical string
// two evaluations can be compared by, regardless of insertion order.
func viewDump(t *testing.T, prog *ast.Program, db *database.Database, v *database.Database) string {
	t.Helper()
	var preds []string
	for p := range prog.IDBPreds() {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var sb strings.Builder
	for _, p := range preds {
		r := v.Relation(p)
		if r == nil {
			fmt.Fprintf(&sb, "%s: <nil>\n", p)
			continue
		}
		fmt.Fprintf(&sb, "%s: %s\n", p, r.Dump(db.Syms))
	}
	return sb.String()
}

// equivPrograms is the equivalence corpus: every shape the fixpoint
// handles — linear and nonlinear recursion, mutual recursion, multiple
// strata, negation, cyclic data.
var equivPrograms = []struct {
	name  string
	prog  string
	facts string
}{
	{
		name:  "tc-chain",
		prog:  tcProg,
		facts: `edge(a, b). edge(b, c). edge(c, d). edge(d, e).`,
	},
	{
		name:  "tc-cycle",
		prog:  tcProg,
		facts: `edge(a, b). edge(b, c). edge(c, a). edge(c, d).`,
	},
	{
		name: "buys-example11",
		prog: `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`,
		facts: `
friend(tom, dick). friend(dick, harry). friend(sue, tom).
idol(tom, harry).
perfectFor(harry, radio). perfectFor(dick, tv). perfectFor(alice, car).
`,
	},
	{
		name: "mutual-recursion",
		prog: `
even(X) :- zero(X).
even(Y) :- odd(X) & succ(X, Y).
odd(Y) :- even(X) & succ(X, Y).
`,
		facts: `
zero(n0).
succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4). succ(n4, n5).
`,
	},
	{
		name: "nonlinear",
		prog: `
t(X, Y) :- t(X, W) & t(W, Y).
t(X, Y) :- edge(X, Y).
`,
		facts: `edge(a, b). edge(b, c). edge(c, d). edge(d, a).`,
	},
	{
		name: "negation-strata",
		prog: `
reach(X) :- start(X).
reach(Y) :- reach(X) & edge(X, Y).
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
blocked(X) :- node(X) & not reach(X).
`,
		facts: `start(a). edge(a, b). edge(c, d). edge(d, c).`,
	},
}

func TestNaiveMatchesSemiNaive(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(d, e).`)
	prog := mustProgram(t, tcProg)
	sn := answerDump(t, prog, db, `path(X, Y)?`, Options{})
	nv := answerDump(t, prog, db, `path(X, Y)?`, Options{Naive: true})
	if sn != nv {
		t.Fatalf("semi-naive %s != naive %s", sn, nv)
	}

	for _, tc := range equivPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustProgram(t, tc.prog)
			db := database.New()
			mustLoad(t, db, tc.facts)
			snView, err := Run(prog, db, Options{})
			if err != nil {
				t.Fatalf("semi-naive: %v", err)
			}
			nvView, err := Run(prog, db, Options{Naive: true})
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			if sn, nv := viewDump(t, prog, db, snView), viewDump(t, prog, db, nvView); sn != nv {
				t.Errorf("naive view differs from semi-naive:\nsemi-naive:\n%s\nnaive:\n%s", sn, nv)
			}
		})
	}
}

func TestExample11Buys(t *testing.T) {
	prog := mustProgram(t, `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`)
	db := database.New()
	mustLoad(t, db, `
friend(tom, dick). friend(dick, harry).
idol(tom, harry).
perfectFor(harry, radio). perfectFor(dick, tv).
`)
	got := answerDump(t, prog, db, `buys(tom, Y)?`, Options{})
	if got != "{(radio) (tv)}" {
		t.Fatalf("buys(tom, Y) = %s", got)
	}
}

func TestMutualRecursion(t *testing.T) {
	// even/odd distance from a along a chain — exercises multiple IDB
	// predicates in one fixpoint.
	prog := mustProgram(t, `
even(X) :- start(X).
even(Y) :- odd(X) & edge(X, Y).
odd(Y) :- even(X) & edge(X, Y).
`)
	db := database.New()
	mustLoad(t, db, `start(a). edge(a, b). edge(b, c). edge(c, d).`)
	got := answerDump(t, prog, db, `even(X)?`, Options{})
	if got != "{(a) (c)}" {
		t.Fatalf("even = %s", got)
	}
	got = answerDump(t, prog, db, `odd(X)?`, Options{})
	if got != "{(b) (d)}" {
		t.Fatalf("odd = %s", got)
	}
}

func TestNonlinearRecursion(t *testing.T) {
	prog := mustProgram(t, `
t(X, Y) :- e(X, Y).
t(X, Y) :- t(X, W) & t(W, Y).
`)
	db := database.New()
	mustLoad(t, db, `e(a, b). e(b, c). e(c, d). e(d, e).`)
	got := answerDump(t, prog, db, `t(a, Y)?`, Options{})
	if got != "{(b) (c) (d) (e)}" {
		t.Fatalf("t(a, Y) = %s", got)
	}
}

func TestIDBInitialFacts(t *testing.T) {
	// Facts stored under the IDB predicate's own name seed the fixpoint.
	prog := mustProgram(t, `p(X) :- p(X).`)
	db := database.New()
	mustLoad(t, db, `p(a).`)
	got := answerDump(t, prog, db, `p(X)?`, Options{})
	if got != "{(a)}" {
		t.Fatalf("p = %s", got)
	}
}

func TestIterationLimit(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, c). edge(c, d). edge(d, e).`)
	bud := budget.New(context.Background(), budget.Limits{MaxRounds: 2})
	_, err := Run(mustProgram(t, tcProg), db, Options{Budget: bud})
	if !errors.Is(err, budget.ErrBudget) {
		t.Fatalf("err = %v, want budget.ErrBudget", err)
	}
	var re *budget.ResourceError
	if !errors.As(err, &re) || re.Limit != budget.LimitRounds || re.Max != 2 {
		t.Fatalf("err = %#v, want rounds ResourceError with Max=2", err)
	}
}

// TestStatsCollected pins the round structure on a 5-edge chain: round k
// derives the paths of length k+1, and a sixth round finds nothing new,
// under semi-naive and naive iteration alike. A round whose bodies read
// tuples derived earlier in the same round would finish in fewer rounds.
func TestStatsCollected(t *testing.T) {
	for _, naive := range []bool{false, true} {
		db := database.New()
		mustLoad(t, db, `edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(e, f).`)
		c := stats.New()
		if _, err := Run(mustProgram(t, tcProg), db, Options{Collector: c, Naive: naive}); err != nil {
			t.Fatal(err)
		}
		if c.Sizes["path"] != 15 || c.Inserted != 15 {
			t.Fatalf("naive=%v: path peak size = %d, inserted = %d, want 15 and 15 (%s)", naive, c.Sizes["path"], c.Inserted, c)
		}
		if c.Iterations != 6 {
			t.Fatalf("naive=%v: iterations = %d, want 6", naive, c.Iterations)
		}
	}
}

func TestRunDoesNotMutateEDB(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `edge(a, b). p(a).`)
	prog := mustProgram(t, `p(Y) :- p(X) & edge(X, Y).`)
	if _, err := Run(prog, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.Relation("p").Len() != 1 {
		t.Fatal("Run mutated the caller's p relation")
	}
}

func TestQueryVars(t *testing.T) {
	q, _ := parser.Query(`p(X, tom, Y, X)?`)
	vs := QueryVars(q)
	if len(vs) != 2 || vs[0] != "X" || vs[1] != "Y" {
		t.Fatalf("QueryVars = %v", vs)
	}
}

func TestAnswerRepeatedVariable(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `e(a, a). e(a, b).`)
	prog := mustProgram(t, `p(X, Y) :- e(X, Y).`)
	got := answerDump(t, prog, db, `p(X, X)?`, Options{})
	if got != "{(a)}" {
		t.Fatalf("p(X, X) = %s", got)
	}
}

func TestAnswerGroundQuery(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `e(a, b).`)
	prog := mustProgram(t, `p(X, Y) :- e(X, Y).`)
	got := answerDump(t, prog, db, `p(a, b)?`, Options{})
	if got != "{()}" {
		t.Fatalf("ground true query = %s", got)
	}
	got = answerDump(t, prog, db, `p(b, a)?`, Options{})
	if got != "{}" {
		t.Fatalf("ground false query = %s", got)
	}
}

func TestAnswerUnknownConstant(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `e(a, b).`)
	prog := mustProgram(t, `p(X, Y) :- e(X, Y).`)
	got := answerDump(t, prog, db, `p(zzz, Y)?`, Options{})
	if got != "{}" {
		t.Fatalf("unknown constant query = %s", got)
	}
}

func TestAnswerMissingRelation(t *testing.T) {
	db := database.New()
	q, _ := parser.Query(`nothing(X)?`)
	ans, err := Answer(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 || ans.Arity() != 1 {
		t.Fatalf("missing relation answer: len=%d arity=%d", ans.Len(), ans.Arity())
	}
}

func TestAnswerArityMismatch(t *testing.T) {
	db := database.New()
	mustLoad(t, db, `e(a, b).`)
	q, _ := parser.Query(`e(X)?`)
	if _, err := Answer(db, q); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestSameGeneration(t *testing.T) {
	// The classic same-generation program on a small tree.
	prog := mustProgram(t, `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U) & sg(U, V) & down(V, Y).
`)
	db := database.New()
	mustLoad(t, db, `
up(c1, p1). up(c2, p1). up(c3, p2).
flat(p1, p2).
down(p1, c1). down(p1, c2). down(p2, c3).
`)
	got := answerDump(t, prog, db, `sg(c1, Y)?`, Options{})
	if got != "{(c3)}" {
		t.Fatalf("sg(c1, Y) = %s", got)
	}
}

// TestSemiNaiveRoundsDoNotAllocate pins that a semi-naive round allocates
// nothing: frozen windows, sinks and deltas are per-slot headers re-cut in
// place, base relations are resolved once per run, and the collector is
// updated once per run. Reachability from the head of an n-edge chain runs
// n+1 rounds that each derive one tuple, so going from n = 64 to n = 256
// adds 192 rounds. The only allocations that may grow with n are reach's
// own doublings: its row array and its row table each double twice on a 4x
// growth, 2 x 2 = 4 allocations. Per-round sinks and windows would add
// hundreds.
func TestSemiNaiveRoundsDoNotAllocate(t *testing.T) {
	const doublingAllocs = 2 * 2
	prog := mustProgram(t, `
reach(Y) :- start(Y).
reach(Y) :- reach(X) & edge(X, Y).
`)
	allocs := func(n int) float64 {
		db := database.New()
		datagen.Chain(db, "edge", "a", n)
		db.AddFact("start", datagen.Name("a", 1))
		col := stats.New()
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(prog, db, Options{Collector: col}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(256)
	if large-small > doublingAllocs {
		t.Errorf("Run allocates %v times at n = 64 and %v at n = 256: %v more for 192 more rounds, want at most %d (reach's doublings)",
			small, large, large-small, doublingAllocs)
	}
}
