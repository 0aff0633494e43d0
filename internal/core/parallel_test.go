package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
)

// padAboveClosureFloor adds facts of a predicate no program reads until db
// holds adaptiveClosureFloor tuples, so the product evaluator's gate opens
// on tiny test databases without changing any answer.
func padAboveClosureFloor(t *testing.T, db *database.Database) {
	t.Helper()
	for i := 0; db.NumTuples() < adaptiveClosureFloor; i++ {
		if _, err := db.AddFact("unusedPad", fmt.Sprintf("pad%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkParallelMatches runs the query sequentially (interleaved carry
// loop) and in parallel (per-class closures + product merge) and requires
// identical answer sets, cross-validated against semi-naive.
func checkParallelMatches(t *testing.T, prog string, db *database.Database, query string, opts EvalOptions) {
	t.Helper()
	padAboveClosureFloor(t, db)
	p := mustProgram(t, prog)
	q := mustQuery(t, query)
	seqOpts := opts
	seqOpts.Parallelism = 1
	seq, err := Answer(p, db, q, seqOpts)
	if err != nil {
		t.Fatalf("%s sequential: %v", query, err)
	}
	parOpts := opts
	parOpts.Parallelism = 8
	par, err := Answer(p, db, q, parOpts)
	if err != nil {
		t.Fatalf("%s parallel: %v", query, err)
	}
	if !par.Equal(seq) {
		t.Fatalf("%s: parallel = %s, sequential = %s", query, par.Dump(db.Syms), seq.Dump(db.Syms))
	}
	if pd, sd := par.Dump(db.Syms), seq.Dump(db.Syms); pd != sd {
		t.Fatalf("%s: sorted dumps differ: %s vs %s", query, pd, sd)
	}
	want := seminaiveAnswer(t, p, db, q)
	if !par.Equal(want) {
		t.Fatalf("%s: parallel = %s, semi-naive = %s", query, par.Dump(db.Syms), want.Dump(db.Syms))
	}
}

func TestProductEvaluatorMultiClass(t *testing.T) {
	for _, c := range []int{2, 3, 4} {
		for _, n := range []int{3, 6} {
			c, n := c, n
			t.Run(fmt.Sprintf("c%d-n%d", c, n), func(t *testing.T) {
				prog := datagen.MultiClassProgram(c)
				db := datagen.MultiClassDB(n, c)
				src := prog.String()
				checkParallelMatches(t, src, db, datagen.MultiClassQuery(c), EvalOptions{})
			})
		}
	}
}

func TestProductEvaluatorPartialAndMultipleSelections(t *testing.T) {
	db := datagen.MultiClassDB(5, 3)
	prog := datagen.MultiClassProgram(3).String()
	for _, query := range []string{
		// Selection driving from class 1, 2, 3 respectively.
		`t(c1v1, Y, Z)?`,
		`t(X, c2v2, Z)?`,
		`t(X, Y, c3v1)?`,
		// Two selections: one class drives, the other filters its closure.
		`t(c1v1, c2v2, Z)?`,
		`t(c1v2, Y, c3v3)?`,
		// Ground query.
		`t(c1v1, c2v1, c3v1)?`,
	} {
		query := query
		t.Run(query, func(t *testing.T) {
			checkParallelMatches(t, prog, db, query, EvalOptions{})
		})
	}
}

func TestProductEvaluatorExample12CyclicData(t *testing.T) {
	// Example 1.2 with a cycle in the cheaper class: per-class closures
	// must terminate on cyclic data exactly like the interleaved loop.
	db := database.New()
	mustLoad(t, db, `
friend(tom, dick). friend(dick, harry). friend(harry, tom).
cheaper(tv, stereo). cheaper(radio, tv). cheaper(stereo, radio).
perfectFor(dick, stereo).
`)
	prog := `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`
	checkParallelMatches(t, prog, db, `buys(tom, Y)?`, EvalOptions{})
	checkParallelMatches(t, prog, db, `buys(X, radio)?`, EvalOptions{})
}

func TestProductEvaluatorPersistentSelection(t *testing.T) {
	// A persistent column (T) plus two classes; the selection on t|pers
	// filters exit tuples, the class closures are unaffected.
	db := database.New()
	mustLoad(t, db, `
hop(a, b). hop(b, c). hop(c, a).
fare(y1, y2). fare(y2, y3).
direct(c, y1, bus). direct(b, y2, car).
`)
	prog := `
reach(X, Y, T) :- hop(X, W) & reach(W, Y, T).
reach(X, Y, T) :- reach(X, W, T) & fare(W, Y).
reach(X, Y, T) :- direct(X, Y, T).
`
	checkParallelMatches(t, prog, db, `reach(a, Y, bus)?`, EvalOptions{})
	checkParallelMatches(t, prog, db, `reach(X, y3, T)?`, EvalOptions{})
}

func TestProductEvaluatorRelaxedConnectivity(t *testing.T) {
	prog := `
t(X, Y) :- a(X, W) & t(W, Z) & b(Z, Y).
t(X, Y) :- t0(X, Y).
`
	db := database.New()
	mustLoad(t, db, `
a(x0, x1). a(x1, x2).
t0(x2, m0). t0(x1, m1). t0(x0, m2).
b(m0, y0). b(m1, y1). b(y1, y2). b(m2, y3).
`)
	checkParallelMatches(t, prog, db, `t(x0, Y)?`, EvalOptions{AllowDisconnected: true})
}

func TestProductEvaluatorBudgetAbortParity(t *testing.T) {
	prog := datagen.MultiClassProgram(3)
	db := datagen.MultiClassDB(30, 3)
	padAboveClosureFloor(t, db)
	q := mustQuery(t, datagen.MultiClassQuery(3))
	for _, limits := range []budget.Limits{
		{MaxTuples: 5},
		{MaxRounds: 2},
	} {
		limits := limits
		t.Run(fmt.Sprintf("%+v", limits), func(t *testing.T) {
			_, seqErr := Answer(prog, db, q, EvalOptions{
				Budget: budget.New(context.Background(), limits),
			})
			_, parErr := Answer(prog, db, q, EvalOptions{
				Parallelism: 8,
				Budget:      budget.New(context.Background(), limits),
			})
			if !errors.Is(seqErr, budget.ErrBudget) {
				t.Fatalf("sequential err = %v, want budget abort", seqErr)
			}
			if !errors.Is(parErr, budget.ErrBudget) {
				t.Fatalf("parallel err = %v, want budget abort", parErr)
			}
			var seqRE, parRE *budget.ResourceError
			if !errors.As(seqErr, &seqRE) || !errors.As(parErr, &parRE) {
				t.Fatalf("errors are not *ResourceError: %v / %v", seqErr, parErr)
			}
			if seqRE.Limit != parRE.Limit {
				t.Errorf("limit kinds differ: sequential %s, parallel %s", seqRE.Limit, parRE.Limit)
			}
		})
	}
}

// TestPhase2ClassesShapes pins the class partitioning the product
// evaluator fans out over: one phase2class per non-driver equivalence
// class, covering exactly the non-driver output columns.
func TestPhase2ClassesShapes(t *testing.T) {
	prog := datagen.MultiClassProgram(4)
	q := mustQuery(t, datagen.MultiClassQuery(4))
	a, err := Analyze(prog, q.Pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Classes) != 4 {
		t.Fatalf("classes = %d, want 4", len(a.Classes))
	}
}
