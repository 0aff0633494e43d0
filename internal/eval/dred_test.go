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

func pathAnswers(t *testing.T, m *Materialized, query string) string {
	t.Helper()
	q, err := parser.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := m.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	return ans.Dump(m.View().Syms)
}

func TestDeleteFactBasic(t *testing.T) {
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, c).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	present, err := m.DeleteFact("edge", "b", "c")
	if err != nil || !present {
		t.Fatalf("DeleteFact = %v, %v", present, err)
	}
	if got := pathAnswers(t, m, `path(a, Y)?`); got != "{(b)}" {
		t.Fatalf("path(a, Y) = %s", got)
	}
	// Deleting again is a no-op.
	present, err = m.DeleteFact("edge", "b", "c")
	if err != nil || present {
		t.Fatalf("double DeleteFact = %v, %v", present, err)
	}
	// Unknown constants / predicates are no-ops, not errors.
	if present, err := m.DeleteFact("edge", "zz", "qq"); err != nil || present {
		t.Fatalf("unknown-constant delete = %v, %v", present, err)
	}
	if present, err := m.DeleteFact("ghost", "x"); err != nil || present {
		t.Fatalf("unknown-pred delete = %v, %v", present, err)
	}
	if _, err := m.DeleteFact("path", "a", "b"); err == nil {
		t.Fatal("IDB delete accepted")
	}
}

func TestDeleteRederivesAlternatePath(t *testing.T) {
	// Two disjoint paths a->c; deleting one leaves path(a,c) derivable.
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, c). edge(a, c).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteFact("edge", "a", "c"); err != nil {
		t.Fatal(err)
	}
	if got := pathAnswers(t, m, `path(a, Y)?`); got != "{(b) (c)}" {
		t.Fatalf("path(a, Y) = %s (direct edge deleted, chain remains)", got)
	}
	if _, err := m.DeleteFact("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := pathAnswers(t, m, `path(a, Y)?`); got != "{}" {
		t.Fatalf("path(a, Y) = %s after both deletions", got)
	}
}

func TestDeleteOnCycle(t *testing.T) {
	// Cycles are where naive deletion goes wrong: every tuple on the cycle
	// "supports" the others. DRed must clear them all.
	prog := mustProgram(t, tcProg)
	db := database.New()
	mustLoad(t, db, `edge(a, b). edge(b, a).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteFact("edge", "b", "a"); err != nil {
		t.Fatal(err)
	}
	if got := pathAnswers(t, m, `path(X, Y)?`); got != "{(a,b)}" {
		t.Fatalf("path = %s after breaking the cycle", got)
	}
}

func TestDeleteMultiDerivationTuple(t *testing.T) {
	// A tuple derivable through two distinct rules must survive the
	// deletion of one support.
	prog := mustProgram(t, `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`)
	db := database.New()
	mustLoad(t, db, `friend(a, b). idol(a, b). perfectFor(b, g).`)
	m, err := Materialize(prog, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteFact("friend", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := pathAnswers(t, m, `buys(a, Y)?`); got != "{(g)}" {
		t.Fatalf("buys(a, Y) = %s (idol support remains)", got)
	}
	if _, err := m.DeleteFact("idol", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := pathAnswers(t, m, `buys(a, Y)?`); got != "{}" {
		t.Fatalf("buys(a, Y) = %s after both supports gone", got)
	}
}

// TestDeleteMatchesRecompute drives random interleaved insert/delete
// sequences and checks the maintained view against recomputation from
// scratch after every operation.
func TestDeleteMatchesRecompute(t *testing.T) {
	progs := map[string]struct {
		src   string
		edbs  []string
		idb   string
		arity int
	}{
		"tc": {tcProg, []string{"edge"}, "path", 2},
		"buys": {`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`, []string{"friend", "cheaper", "perfectFor"}, "buys", 2},
		// Two delta occurrences in one rule.
		"nonlinear": {`
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, W) & path(W, Y).
`, []string{"edge"}, "path", 2},
		// Two mutually recursive IDB predicates: re-derivation seeds both.
		"mutual": {`
a(X, Y) :- e(X, Y).
a(X, Y) :- e(X, W) & b(W, Y).
b(X, Y) :- f(X, W) & a(W, Y).
`, []string{"e", "f"}, "a", 2},
	}
	rng := rand.New(rand.NewSource(13))
	for name, cfg := range progs {
		t.Run(name, func(t *testing.T) {
			prog := mustProgram(t, cfg.src)
			m, err := Materialize(prog, database.New(), stats.New())
			if err != nil {
				t.Fatal(err)
			}
			shadow := database.New()
			type fact struct {
				pred, a, b string
			}
			var live []fact
			n := 5
			for step := 0; step < 80; step++ {
				if len(live) == 0 || rng.Intn(3) > 0 {
					f := fact{
						pred: cfg.edbs[rng.Intn(len(cfg.edbs))],
						a:    fmt.Sprintf("c%d", rng.Intn(n)),
						b:    fmt.Sprintf("c%d", rng.Intn(n)),
					}
					if _, err := m.AddFact(f.pred, f.a, f.b); err != nil {
						t.Fatal(err)
					}
					shadow.AddFact(f.pred, f.a, f.b)
					live = append(live, f)
				} else {
					i := rng.Intn(len(live))
					f := live[i]
					live = append(live[:i], live[i+1:]...)
					if _, err := m.DeleteFact(f.pred, f.a, f.b); err != nil {
						t.Fatal(err)
					}
					// Rebuild the shadow EDB without f (it may still be
					// present from a duplicate insert; set semantics says
					// it is simply gone).
					shadow.Relation(f.pred).Delete(toTuple(shadow, f.a, f.b))
				}
				view, err := Run(prog, shadow, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := m.View().Relation(cfg.idb)
				want := view.Relation(cfg.idb)
				if !got.Equal(want) {
					t.Fatalf("step %d: maintained %s != recomputed %s",
						step, got.Dump(m.View().Syms), want.Dump(shadow.Syms))
				}
			}
		})
	}
}

func toTuple(db *database.Database, args ...string) rel.Tuple {
	t := make(rel.Tuple, len(args))
	for i, a := range args {
		v, _ := db.Syms.Lookup(a)
		t[i] = v
	}
	return t
}
