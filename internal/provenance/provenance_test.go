package provenance

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/parser"
	"sepdl/internal/rel"
)

func mustExplainer(t *testing.T, progSrc, facts string) *Explainer {
	t.Helper()
	prog, err := parser.Program(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	db := database.New()
	fs, err := parser.Facts(facts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(fs); err != nil {
		t.Fatal(err)
	}
	e, err := New(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustFact(t *testing.T, src string) ast.Atom {
	t.Helper()
	a, err := parser.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

const buysProg = `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`

func TestExplainChain(t *testing.T) {
	e := mustExplainer(t, buysProg, `
friend(tom, dick). friend(dick, harry).
perfectFor(harry, radio).
`)
	n, err := e.Explain(mustFact(t, `buys(tom, radio)`))
	if err != nil {
		t.Fatal(err)
	}
	out := n.String()
	for _, want := range []string{
		"buys(tom, radio)",
		"friend(tom, dick)   [base fact]",
		"buys(dick, radio)",
		"friend(dick, harry)   [base fact]",
		"buys(harry, radio)",
		"perfectFor(harry, radio)   [base fact]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("derivation missing %q:\n%s", want, out)
		}
	}
	// The tree depth matches the chain: tom -> dick -> harry -> base.
	for _, fact := range []string{"buys(tom, radio)", "buys(dick, radio)", "buys(harry, radio)"} {
		if strings.Count(out, fact+"   [") != 1 {
			t.Errorf("fact %s should appear exactly once:\n%s", fact, out)
		}
	}
}

func TestExplainWellFoundedOnCycle(t *testing.T) {
	// friend cycle: the explanation must bottom out at perfectFor, never
	// cite buys(a, g) in support of itself.
	e := mustExplainer(t, buysProg, `
friend(a, b). friend(b, a).
perfectFor(b, g).
`)
	n, err := e.Explain(mustFact(t, `buys(a, g)`))
	if err != nil {
		t.Fatal(err)
	}
	out := n.String()
	if strings.Count(out, "buys(a, g)") != 1 {
		t.Fatalf("explanation cites the fact itself:\n%s", out)
	}
	if !strings.Contains(out, "perfectFor(b, g)   [base fact]") {
		t.Fatalf("explanation does not bottom out:\n%s", out)
	}
}

func TestExplainBaseFact(t *testing.T) {
	e := mustExplainer(t, buysProg, `friend(a, b). perfectFor(b, g).`)
	n, err := e.Explain(mustFact(t, `friend(a, b)`))
	if err != nil {
		t.Fatal(err)
	}
	if !n.Base || n.Rule != "" || len(n.Children) != 0 {
		t.Fatalf("base fact node wrong: %+v", n)
	}
}

func TestExplainAbsentFact(t *testing.T) {
	e := mustExplainer(t, buysProg, `friend(a, b). perfectFor(b, g).`)
	if _, err := e.Explain(mustFact(t, `buys(b, zzz)`)); err == nil {
		t.Fatal("absent fact explained")
	}
	if _, err := e.Explain(mustFact(t, `buys(X, g)`)); err == nil {
		t.Fatal("nonground fact explained")
	}
}

func TestExplainNegation(t *testing.T) {
	e := mustExplainer(t, `
reach(X) :- start(X).
reach(Y) :- reach(X) & edge(X, Y).
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
blocked(X) :- node(X) & not reach(X).
`, `start(a). edge(a, b). edge(c, d).`)
	n, err := e.Explain(mustFact(t, `blocked(c)`))
	if err != nil {
		t.Fatal(err)
	}
	out := n.String()
	if !strings.Contains(out, "not reach(c)   [no matching tuple]") {
		t.Fatalf("negated leaf missing:\n%s", out)
	}
	if !strings.Contains(out, "node(c)") {
		t.Fatalf("positive support missing:\n%s", out)
	}
}

func TestExplainPicksSomeRuleAmongAlternatives(t *testing.T) {
	// Two derivations exist (friend and idol); the explanation must pick a
	// valid one.
	e := mustExplainer(t, buysProg, `
friend(a, b). idol(a, b). perfectFor(b, g).
`)
	n, err := e.Explain(mustFact(t, `buys(a, g)`))
	if err != nil {
		t.Fatal(err)
	}
	out := n.String()
	if !strings.Contains(out, "friend(a, b)") && !strings.Contains(out, "idol(a, b)") {
		t.Fatalf("no support cited:\n%s", out)
	}
}

func TestExplainerRelationsMatchEval(t *testing.T) {
	e := mustExplainer(t, buysProg, `
friend(a, b). friend(b, c). idol(a, c).
perfectFor(c, g1). perfectFor(b, g2).
`)
	if e.Relation("buys").Len() != 5 {
		t.Fatalf("buys = %s", e.Relation("buys").Dump(e.db.Syms))
	}
}

func TestExplainBuiltin(t *testing.T) {
	e := mustExplainer(t, `
sibling(X, Y) :- parent(X, P) & parent(Y, P) & neq(X, Y).
`, `parent(a, p). parent(b, p).`)
	n, err := e.Explain(mustFact(t, `sibling(a, b)`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n.String(), "neq(a, b)   [builtin]") {
		t.Fatalf("builtin leaf missing:\n%s", n)
	}
}

// TestExplainBaseRuleFirst and TestExplainBuysFactOrder explain facts whose
// derivations need several rounds when the rules or facts come in an order
// that lets one naive round chain through its own new tuples: the support
// must come from strictly earlier rounds, and one must still be found.
func TestExplainBaseRuleFirst(t *testing.T) {
	e := mustExplainer(t, `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, W) & path(W, Y).
`, `edge(a, b). edge(b, c). edge(c, d).`)
	n, err := e.Explain(mustFact(t, `path(a, d)`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n.String(), "edge(c, d)   [base fact]") {
		t.Fatalf("derivation does not bottom out:\n%s", n)
	}
}

func TestExplainBuysFactOrder(t *testing.T) {
	e := mustExplainer(t, buysProg, `
friend(dick, harry). friend(tom, dick).
perfectFor(harry, radio).
`)
	n, err := e.Explain(mustFact(t, `buys(tom, radio)`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n.String(), "perfectFor(harry, radio)   [base fact]") {
		t.Fatalf("derivation does not bottom out:\n%s", n)
	}
}

// TestExplainGolden pins whole explanations. A fact's support is the first
// binding its rules find among the tuples of earlier rounds, so each tree
// is a derivation of least depth.
func TestExplainGolden(t *testing.T) {
	const example11Facts = `
friend(tom, dick). friend(dick, harry).
idol(tom, harry).
perfectFor(harry, radio). perfectFor(dick, tv). perfectFor(alice, car).
`
	for _, c := range []struct {
		name, prog, facts, fact, want string
	}{
		{"example1.1", buysProg, example11Facts, `buys(tom, radio)`, `
buys(tom, radio)   [buys(X, Y) :- idol(X, W) & buys(W, Y).]
  idol(tom, harry)   [base fact]
  buys(harry, radio)   [buys(X, Y) :- perfectFor(X, Y).]
    perfectFor(harry, radio)   [base fact]
`},
		{"example1.1-tv", buysProg, example11Facts, `buys(tom, tv)`, `
buys(tom, tv)   [buys(X, Y) :- friend(X, W) & buys(W, Y).]
  friend(tom, dick)   [base fact]
  buys(dick, tv)   [buys(X, Y) :- perfectFor(X, Y).]
    perfectFor(dick, tv)   [base fact]
`},
		{"example1.2", `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`, `friend(a1, a2). friend(a2, a3). cheaper(b1, b2). cheaper(b2, b3). perfectFor(a3, b3).`,
			`buys(a1, b1)`, `
buys(a1, b1)   [buys(X, Y) :- friend(X, W) & buys(W, Y).]
  friend(a1, a2)   [base fact]
  buys(a2, b1)   [buys(X, Y) :- friend(X, W) & buys(W, Y).]
    friend(a2, a3)   [base fact]
    buys(a3, b1)   [buys(X, Y) :- buys(X, W) & cheaper(Y, W).]
      buys(a3, b2)   [buys(X, Y) :- buys(X, W) & cheaper(Y, W).]
        buys(a3, b3)   [buys(X, Y) :- perfectFor(X, Y).]
          perfectFor(a3, b3)   [base fact]
        cheaper(b2, b3)   [base fact]
      cheaper(b1, b2)   [base fact]
`},
		{"cyclic-friend", buysProg, `friend(a, b). friend(b, c). friend(c, a). perfectFor(c, g).`,
			`buys(a, g)`, `
buys(a, g)   [buys(X, Y) :- friend(X, W) & buys(W, Y).]
  friend(a, b)   [base fact]
  buys(b, g)   [buys(X, Y) :- friend(X, W) & buys(W, Y).]
    friend(b, c)   [base fact]
    buys(c, g)   [buys(X, Y) :- perfectFor(X, Y).]
      perfectFor(c, g)   [base fact]
`},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, err := mustExplainer(t, c.prog, c.facts).Explain(mustFact(t, c.fact))
			if err != nil {
				t.Fatal(err)
			}
			if got := n.String(); got != c.want[1:] {
				t.Fatalf("got:\n%s\nwant:\n%s", got, c.want[1:])
			}
		})
	}
}

// TestExplainWellFounded explains every tuple of every IDB relation over
// seeded random databases and checks each tree: every derived child was
// first derived in a strictly earlier round than its parent, every base
// leaf is a fact of the database, and every negated leaf has no tuple.
func TestExplainWellFounded(t *testing.T) {
	// An explanation that cites its own fact recurses without end; a small
	// stack cap turns that into a prompt crash instead of gigabytes of
	// stack.
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))

	shapes := []struct {
		name, prog string
		edb        map[string]int // base predicate -> arity
	}{
		{"buys", buysProg, map[string]int{"friend": 2, "idol": 2, "perfectFor": 2}},
		{"path-base-first", `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, W) & path(W, Y).
`, map[string]int{"edge": 2}},
		{"path-rec-first", `
path(X, Y) :- edge(X, W) & path(W, Y).
path(X, Y) :- edge(X, Y).
`, map[string]int{"edge": 2}},
		{"path-nonlinear", `
path(X, Y) :- path(X, W) & path(W, Y).
path(X, Y) :- edge(X, Y).
`, map[string]int{"edge": 2}},
		{"mutual", `
odd(X, Y) :- edge(X, Y).
odd(X, Y) :- even(X, W) & edge(W, Y).
even(X, Y) :- odd(X, W) & edge(W, Y).
`, map[string]int{"edge": 2}},
		{"negation", `
reach(X) :- start(X).
reach(Y) :- reach(X) & edge(X, Y).
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
blocked(X) :- node(X) & not reach(X).
`, map[string]int{"start": 1, "edge": 2}},
	}
	for _, sh := range shapes {
		prog, err := parser.Program(sh.prog)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 25; seed++ {
			db := randomDB(t, sh.edb, seed)
			e, err := New(prog, db, nil)
			if err != nil {
				t.Fatal(err)
			}
			var idb []string
			for p := range e.idb {
				idb = append(idb, p)
			}
			sort.Strings(idb)
			for _, p := range idb {
				r := e.Relation(p)
				for i := range r.Len() {
					row := r.Row(i)
					fact := ast.A(p)
					for _, v := range row {
						fact.Args = append(fact.Args, ast.C(e.db.Syms.Name(v)))
					}
					n, err := e.Explain(fact)
					if err != nil {
						t.Fatalf("%s seed %d: %v", sh.name, seed, err)
					}
					if err := checkTree(e, db, n, len(e.marks)); err != nil {
						t.Fatalf("%s seed %d: %s: %v\n%s", sh.name, seed, fact, err, n)
					}
				}
			}
		}
	}
}

// randomDB draws up to eight tuples per base predicate over six constants.
func randomDB(t *testing.T, edb map[string]int, seed int64) *database.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	preds := make([]string, 0, len(edb))
	for p := range edb {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	db := database.New()
	for _, p := range preds {
		for range rng.Intn(9) {
			args := make([]string, edb[p])
			for i := range args {
				args[i] = fmt.Sprintf("c%d", rng.Intn(6))
			}
			if _, err := db.AddFact(p, args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// checkTree checks n, a node whose parent was derived in round below (the
// rounds read off e's marks), and its subtree.
func checkTree(e *Explainer, db *database.Database, n *Node, below int) error {
	src := strings.TrimPrefix(n.Fact, "not ")
	a, err := parser.Query(src)
	if err != nil {
		return err
	}
	tup := make(rel.Tuple, len(a.Args))
	for i, arg := range a.Args {
		v, ok := e.db.Syms.Lookup(arg.Name)
		if !ok {
			return fmt.Errorf("%s: unknown constant %s", n.Fact, arg.Name)
		}
		tup[i] = v
	}
	switch {
	case n.Base:
		if r := db.Relation(a.Pred); r == nil || !r.Contains(tup) {
			return fmt.Errorf("base leaf %s is not in the database", n.Fact)
		}
	case n.Absent:
		if r := e.Relation(a.Pred); r != nil && r.Contains(tup) {
			return fmt.Errorf("negated leaf %s holds", n.Fact)
		}
	case n.Builtin:
	default:
		if !e.idb[a.Pred] {
			return fmt.Errorf("derived node %s is not an IDB fact", n.Fact)
		}
		k := e.round(a.Pred, tup)
		if k == 0 || k >= below {
			return fmt.Errorf("%s derived in round %d, its parent in round %d", n.Fact, k, below)
		}
		for _, c := range n.Children {
			if err := checkTree(e, db, c, k); err != nil {
				return err
			}
		}
	}
	return nil
}
