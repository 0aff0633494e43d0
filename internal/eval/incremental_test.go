package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"sepdl/internal/database"
	"sepdl/internal/parser"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

func TestMaterializeInitialFixpoint(t *testing.T) {
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, c).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.View().Relation("path").Len() != 3 {
		t.Fatalf("initial path = %s", m.View().Relation("path").Dump(db.Syms))
	}
}

func TestIncrementalInsertPropagates(t *testing.T) {
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a, b).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Linking b->c must derive path(b,c) and path(a,c).
	added, err := m.AddFact("edge", "b", "c")
	if err != nil || !added {
		t.Fatalf("AddFact = %v, %v", added, err)
	}
	q, _ := parser.Query(`path(a, Y)?`)
	ans, err := m.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.Dump(db.Syms); got != "{(b) (c)}" {
		t.Fatalf("path(a, Y) = %s", got)
	}
	// Duplicate insert is a no-op.
	added, err = m.AddFact("edge", "b", "c")
	if err != nil || added {
		t.Fatalf("duplicate AddFact = %v, %v", added, err)
	}
}

func TestIncrementalBridgeJoinsComponents(t *testing.T) {
	// Two chains; the inserted bridge must produce all cross products.
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a1, a2). edge(a2, a3). edge(b1, b2). edge(b2, b3).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddFact("edge", "a3", "b1"); err != nil {
		t.Fatal(err)
	}
	q, _ := parser.Query(`path(a1, Y)?`)
	ans, err := m.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 5 { // a2 a3 b1 b2 b3
		t.Fatalf("path(a1, Y) = %s", ans.Dump(db.Syms))
	}
}

func TestIncrementalDoesNotMutateCaller(t *testing.T) {
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a, b).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AddFact("edge", "b", "c")
	if db.Relation("edge").Len() != 1 {
		t.Fatal("AddFact mutated the caller's database")
	}
}

func TestIncrementalRejectsNegationAndIDBFacts(t *testing.T) {
	neg := mustProgram(t, `p(X) :- q(X) & not r(X).`)
	if _, err := Materialize(neg, database.New(), nil); err == nil {
		t.Fatal("negation accepted")
	}
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a, b).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddFact("path", "a", "b"); err == nil {
		t.Fatal("IDB fact accepted")
	}
	if _, err := m.AddFact("edge", "only-one"); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestIncrementalNewBasePredicate(t *testing.T) {
	// A base predicate that had no facts at Materialize time.
	prog := mustProgram(t, `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`)
	db := database.New()
	mustLoad(t, db, `friend(a, b).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddFact("perfectFor", "b", "g"); err != nil {
		t.Fatal(err)
	}
	q, _ := parser.Query(`buys(a, Y)?`)
	ans, err := m.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.Dump(db.Syms); got != "{(g)}" {
		t.Fatalf("buys(a, Y) = %s", got)
	}
	// Arity mismatch with the program is caught even for fresh predicates.
	if _, err := m.AddFact("friend", "too", "many", "args"); err == nil {
		t.Fatal("wrong arity for fresh base predicate accepted")
	}
}

// TestIncrementalMatchesRecompute drives random insert sequences through
// both the incremental view and a from-scratch recomputation, on four
// programs, and requires identical IDB relations after every insertion.
func TestIncrementalMatchesRecompute(t *testing.T) {
	progs := map[string]string{
		"tc": tcProg,
		"buys2class": `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`,
		// Two delta occurrences in one rule.
		"nonlinear": `
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, W) & path(W, Y).
`,
		// Two mutually recursive IDB predicates.
		"mutual": `
a(X, Y) :- e(X, Y).
a(X, Y) :- e(X, W) & b(W, Y).
b(X, Y) :- f(X, W) & a(W, Y).
`,
	}
	preds := map[string][][2]string{
		"tc":         {{"edge", "2"}},
		"buys2class": {{"friend", "2"}, {"cheaper", "2"}, {"perfectFor", "2"}},
		"nonlinear":  {{"edge", "2"}},
		"mutual":     {{"e", "2"}, {"f", "2"}},
	}
	idbOf := map[string]string{"tc": "path", "buys2class": "buys", "nonlinear": "path", "mutual": "a"}

	rng := rand.New(rand.NewSource(3))
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			prog := mustProgram(t, src)
			db := database.New()
			m, err := Materialize(prog, db, stats.New())
			if err != nil {
				t.Fatal(err)
			}
			shadow := database.New()
			n := 6
			for step := 0; step < 60; step++ {
				p := preds[name][rng.Intn(len(preds[name]))]
				a := fmt.Sprintf("c%d", rng.Intn(n))
				b := fmt.Sprintf("c%d", rng.Intn(n))
				if _, err := m.AddFact(p[0], a, b); err != nil {
					t.Fatal(err)
				}
				shadow.AddFact(p[0], a, b)
				view, err := Run(prog, shadow, Options{})
				if err != nil {
					t.Fatal(err)
				}
				idb := idbOf[name]
				got := m.View().Relation(idb)
				want := view.Relation(idb)
				if !got.Equal(want) {
					t.Fatalf("step %d: incremental %s != recomputed %s",
						step, got.Dump(m.View().Syms), want.Dump(shadow.Syms))
				}
			}
		})
	}
}

// TestIncrementalStepsReadFrozenTotals pins the round structure of an
// insertion's propagation: p(a) derives q(a) in the first round, and r(a),
// which needs q(a), only in the round that reads q's delta; the third
// round finds nothing new. A round whose later rule read the totals its
// own sinks are growing would derive both in the first round, and hold
// two tuples at once.
func TestIncrementalStepsReadFrozenTotals(t *testing.T) {
	prog := mustProgram(t, `
q(X) :- p(X).
r(X) :- p(X) & q(X).
`)
	c := stats.New()
	m, err := Materialize(prog, database.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	iters := c.Iterations
	if added, err := m.AddFact("p", "a"); err != nil || !added {
		t.Fatalf("AddFact = %v, %v", added, err)
	}
	if di := c.Iterations - iters; di != 3 || c.Inserted != 2 {
		t.Fatalf("propagation took %d steps inserting %d tuples, want 3 and 2", di, c.Inserted)
	}
	if got := c.PeakIntermediate(); got != rel.ValueBytes {
		t.Fatalf("peak intermediate = %d bytes, want one unary tuple (%d)", got, rel.ValueBytes)
	}
}
