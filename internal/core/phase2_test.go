package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/eval"
	"sepdl/internal/parser"
	"sepdl/internal/plancache"
)

// checkLoopMatchesProduct answers the query without the closure cache and
// with a fresh one, and requires identical answer sets, cross-validated
// against semi-naive. A single phase-2 class runs the carry loop without
// the cache and the product with it; two or more run the product both ways,
// the second time filling the cache.
func checkLoopMatchesProduct(t *testing.T, prog string, db *database.Database, query string, opts EvalOptions) {
	t.Helper()
	p := mustProgram(t, prog)
	q := mustQuery(t, query)
	loop, err := Answer(p, db, q, opts)
	if err != nil {
		t.Fatalf("%s without cache: %v", query, err)
	}
	cachedOpts := opts
	cachedOpts.Closures = plancache.NewClosures(0)
	product, err := Answer(p, db, q, cachedOpts)
	if err != nil {
		t.Fatalf("%s with cache: %v", query, err)
	}
	if !product.Equal(loop) {
		t.Fatalf("%s: with cache = %s, without = %s", query, product.Dump(db.Syms), loop.Dump(db.Syms))
	}
	if pd, ld := product.Dump(db.Syms), loop.Dump(db.Syms); pd != ld {
		t.Fatalf("%s: sorted dumps differ: %s vs %s", query, pd, ld)
	}
	want := seminaiveAnswer(t, p, db, q)
	if !product.Equal(want) {
		t.Fatalf("%s: Separable = %s, semi-naive = %s", query, product.Dump(db.Syms), want.Dump(db.Syms))
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
				checkLoopMatchesProduct(t, src, db, datagen.MultiClassQuery(c), EvalOptions{})
			})
		}
	}
}

// BenchmarkPhase2 prices Figure 2's second loop in the form the query
// picks: the product on MultiClassDB(n, c)'s c-1 phase-2 classes, the
// carry loop on Example 1.2's single class. Closures are not cached.
func BenchmarkPhase2(b *testing.B) {
	type workload struct {
		name  string
		prog  *ast.Program
		db    *database.Database
		query string
	}
	var ws []workload
	for _, c := range []int{3, 4} {
		for _, n := range []int{16, 48} {
			ws = append(ws, workload{fmt.Sprintf("multiclass-c%d-n%d", c, n), datagen.MultiClassProgram(c), datagen.MultiClassDB(n, c), datagen.MultiClassQuery(c)})
		}
	}
	ex12, err := parser.Program(example12)
	if err != nil {
		b.Fatal(err)
	}
	ws = append(ws, workload{"example12-n1024", ex12, datagen.Example12DB(1024), `buys(a1, Y)?`})
	for _, w := range ws {
		q, err := parser.Query(w.query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Answer(w.prog, w.db, q, EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2AsRules prices Figure 2 run as a program on eval's
// semi-naive round loop against core's own driver, on Example 1.2's
// buys(a1, Y)? at n = 1 024. The hand-written rewrite below derives seen1,
// seen2 and ans with the sizes Answer builds, n each: phase 1 is seen1's
// recursion from the seed fact, phase 2 seen2's from the exit rule.
func BenchmarkFigure2AsRules(b *testing.B) {
	const n = 1024
	rules, err := parser.Program(`
seen1(W) :- seen1(X) & friend(X, W).
seen2(Y) :- seen1(X) & perfectFor(X, Y).
seen2(Y) :- seen2(W) & cheaper(Y, W).
ans(Y) :- seen2(Y).
`)
	if err != nil {
		b.Fatal(err)
	}
	ex12, err := parser.Program(example12)
	if err != nil {
		b.Fatal(err)
	}
	q, err := parser.Query(`buys(a1, Y)?`)
	if err != nil {
		b.Fatal(err)
	}
	seeded := datagen.Example12DB(n)
	seeded.AddFact("seen1", "a1")
	view, err := eval.Run(rules, seeded, eval.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []string{"seen1", "seen2", "ans"} {
		if got := view.Relation(p).Len(); got != n {
			b.Fatalf("%s holds %d tuples, want %d", p, got, n)
		}
	}
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := eval.Run(rules, seeded, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	db := datagen.Example12DB(n)
	b.Run("core", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := Answer(ex12, db, q, EvalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
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
			checkLoopMatchesProduct(t, prog, db, query, EvalOptions{})
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
	checkLoopMatchesProduct(t, prog, db, `buys(tom, Y)?`, EvalOptions{})
	checkLoopMatchesProduct(t, prog, db, `buys(X, radio)?`, EvalOptions{})
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
	checkLoopMatchesProduct(t, prog, db, `reach(a, Y, bus)?`, EvalOptions{})
	checkLoopMatchesProduct(t, prog, db, `reach(X, y3, T)?`, EvalOptions{})
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
	checkLoopMatchesProduct(t, prog, db, `t(x0, Y)?`, EvalOptions{AllowDisconnected: true})
}

// TestProductEvaluatorBudgetAbortParity runs the three-class product
// without and with the closure cache under tight limits: both must abort
// with a *budget.ResourceError naming the limit that was set.
func TestProductEvaluatorBudgetAbortParity(t *testing.T) {
	prog := datagen.MultiClassProgram(3)
	db := datagen.MultiClassDB(30, 3)
	q := mustQuery(t, datagen.MultiClassQuery(3))
	for _, tc := range []struct {
		limits budget.Limits
		want   budget.Limit
	}{
		{budget.Limits{MaxTuples: 5}, budget.LimitTuples},
		{budget.Limits{MaxRounds: 2}, budget.LimitRounds},
	} {
		t.Run(fmt.Sprintf("%+v", tc.limits), func(t *testing.T) {
			for _, closures := range []*plancache.Closures{nil, plancache.NewClosures(0)} {
				_, err := Answer(prog, db, q, EvalOptions{
					Budget:   budget.New(context.Background(), tc.limits),
					Closures: closures,
				})
				var re *budget.ResourceError
				if !errors.Is(err, budget.ErrBudget) || !errors.As(err, &re) {
					t.Fatalf("cache %t: err = %v, want a *budget.ResourceError", closures != nil, err)
				}
				if re.Limit != tc.want {
					t.Errorf("cache %t: limit = %s, want %s", closures != nil, re.Limit, tc.want)
				}
			}
		})
	}
}

// TestPhase2ClassesShapes pins the class partitioning the product
// evaluator multiplies: one phase2class per non-driver equivalence class,
// whose output-column indices are disjoint and together cover exactly the
// non-driver output columns, and none for an excluded class.
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
	driver := slices.IndexFunc(a.Classes, func(c Class) bool { return slices.Contains(c.Cols, 0) })
	if driver < 0 {
		t.Fatal("no class owns the selected column 0")
	}
	outCols := []int{1, 2, 3}
	db := datagen.MultiClassDB(3, 4)
	e := newEvaluator(a, db, q.Pred, EvalOptions{})
	p2, err := e.phase2Classes(driver, -1, outCols, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 3 {
		t.Fatalf("phase-2 classes = %d, want 3", len(p2))
	}
	covered := map[int]int{}
	for _, pc := range p2 {
		for _, j := range pc.colIdx {
			covered[j]++
		}
	}
	for j := range outCols {
		if covered[j] != 1 {
			t.Errorf("output column %d (position %d) is covered by %d classes, want 1", j, outCols[j], covered[j])
		}
	}
	if len(covered) != len(outCols) {
		t.Errorf("colIdx covers %v, want exactly the %d output columns", covered, len(outCols))
	}

	exclude := slices.IndexFunc(a.Classes, func(c Class) bool { return slices.Contains(c.Cols, 2) })
	p2, err = e.phase2Classes(driver, exclude, outCols, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 2 {
		t.Fatalf("phase-2 classes excluding class %d = %d, want 2", exclude, len(p2))
	}
	for _, pc := range p2 {
		if slices.Contains(pc.cols, 2) {
			t.Errorf("excluded class %v still in phase 2", pc.cols)
		}
	}
}
