package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/parser"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

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

func mustQuery(t *testing.T, src string) ast.Atom {
	t.Helper()
	q, err := parser.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// seminaiveAnswer evaluates q over the full program bottom-up, the ground
// truth every Separable result is checked against (Theorem 3.1).
func seminaiveAnswer(t *testing.T, prog *ast.Program, db *database.Database, q ast.Atom) *rel.Relation {
	t.Helper()
	view, err := eval.Run(prog, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eval.Answer(view, q)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func checkAgainstSemiNaive(t *testing.T, prog *ast.Program, db *database.Database, query string) *rel.Relation {
	t.Helper()
	q := mustQuery(t, query)
	got, err := Answer(prog, db, q, EvalOptions{})
	if err != nil {
		t.Fatalf("Separable on %s: %v", query, err)
	}
	want := seminaiveAnswer(t, prog, db, q)
	if !got.Equal(want) {
		t.Fatalf("query %s: Separable = %s, semi-naive = %s", query, got.Dump(db.Syms), want.Dump(db.Syms))
	}
	return got
}

func example11DB(t *testing.T) *database.Database {
	db := database.New()
	mustLoad(t, db, `
friend(tom, dick). friend(dick, harry). friend(sue, tom).
idol(tom, harry). idol(harry, mel).
perfectFor(harry, radio). perfectFor(dick, tv). perfectFor(mel, hat).
perfectFor(alice, car).
`)
	return db
}

func TestFigure3Example11(t *testing.T) {
	// The instantiated algorithm of Figure 3: buys(tom, Y)? on Example 1.1.
	db := example11DB(t)
	got := checkAgainstSemiNaive(t, mustProgram(t, example11), db, `buys(tom, Y)?`)
	if dump := got.Dump(db.Syms); dump != "{(hat) (radio) (tv)}" {
		t.Fatalf("buys(tom, Y) = %s", dump)
	}
}

func TestFigure4Example12(t *testing.T) {
	// The instantiated algorithm of Figure 4: buys(tom, Y)? on Example 1.2.
	db := database.New()
	mustLoad(t, db, `
friend(tom, dick). friend(dick, harry).
perfectFor(harry, tv). perfectFor(dick, stereo).
cheaper(radio, tv). cheaper(pencil, radio). cheaper(eraser, pencil).
cheaper(walkman, stereo).
perfectFor(alice, car). cheaper(toy, car).
`)
	got := checkAgainstSemiNaive(t, mustProgram(t, example12), db, `buys(tom, Y)?`)
	if dump := got.Dump(db.Syms); dump != "{(eraser) (pencil) (radio) (stereo) (tv) (walkman)}" {
		t.Fatalf("buys(tom, Y) = %s", dump)
	}
}

func TestCyclicDataTerminates(t *testing.T) {
	// Henschen-Naqvi fails on cyclic data (§1); Separable must not.
	db := database.New()
	mustLoad(t, db, `
friend(a, b). friend(b, c). friend(c, a).
idol(b, b).
perfectFor(c, thing).
`)
	got := checkAgainstSemiNaive(t, mustProgram(t, example11), db, `buys(a, Y)?`)
	if got.Len() != 1 {
		t.Fatalf("answers = %d, want 1", got.Len())
	}
}

func TestPersistentSelection(t *testing.T) {
	// buys(X, radio)? selects on the persistent column of Example 1.1.
	db := example11DB(t)
	got := checkAgainstSemiNaive(t, mustProgram(t, example11), db, `buys(X, radio)?`)
	// harry is perfect for radio; tom (via idol and via friend-friend) and
	// dick (friend) and sue (friend of tom) buy it too.
	if dump := got.Dump(db.Syms); dump != "{(dick) (harry) (sue) (tom)}" {
		t.Fatalf("buys(X, radio) = %s", dump)
	}
}

func TestGroundQuery(t *testing.T) {
	db := example11DB(t)
	got := checkAgainstSemiNaive(t, mustProgram(t, example11), db, `buys(tom, radio)?`)
	if got.Len() != 1 || got.Arity() != 0 {
		t.Fatalf("ground true query: len=%d arity=%d", got.Len(), got.Arity())
	}
	got = checkAgainstSemiNaive(t, mustProgram(t, example11), db, `buys(alice, radio)?`)
	if got.Len() != 0 {
		t.Fatalf("ground false query returned %d tuples", got.Len())
	}
}

func TestSecondClassSelection(t *testing.T) {
	// buys(X, radio)? on Example 1.2 drives from the cheaper class.
	db := database.New()
	mustLoad(t, db, `
friend(tom, dick).
perfectFor(dick, tv).
cheaper(radio, tv). cheaper(pencil, radio).
`)
	got := checkAgainstSemiNaive(t, mustProgram(t, example12), db, `buys(X, radio)?`)
	if dump := got.Dump(db.Syms); dump != "{(dick) (tom)}" {
		t.Fatalf("buys(X, radio) = %s", dump)
	}
}

func TestNoSelectionError(t *testing.T) {
	db := example11DB(t)
	_, err := Answer(mustProgram(t, example11), db, mustQuery(t, `buys(X, Y)?`), EvalOptions{})
	if !errors.Is(err, ErrNoSelection) {
		t.Fatalf("err = %v, want ErrNoSelection", err)
	}
}

func TestPartialSelectionExample24(t *testing.T) {
	// Example 2.4: t(c, Y, Z)? binds one of the two columns of the {1,2}
	// class — a partial selection evaluated via Lemma 2.1.
	prog := mustProgram(t, example24)
	db := database.New()
	mustLoad(t, db, `
a(c, y1, u1, v1). a(u1, v1, u2, v2). a(qq, zz, u9, v9).
t0(u2, v2, w1). t0(c, y1, w0). t0(u9, v9, w9).
b(w1, z1). b(z1, z2). b(w0, z0).
`)
	got := checkAgainstSemiNaive(t, prog, db, `t(c, Y, Z)?`)
	if got.Len() == 0 {
		t.Fatal("partial selection returned nothing")
	}
	// Also check a specific expected tuple: derivation with one a-step
	// then one b-step: t(c,y1,Z) via a(c,y1,u1,v1), t0 at (u2,v2) needs
	// two a-steps; with zero a-steps t0(c,y1,w0) gives Z in {w0, z0}.
	y1, _ := db.Syms.Lookup("y1")
	w0, _ := db.Syms.Lookup("w0")
	z0, _ := db.Syms.Lookup("z0")
	for _, want := range []rel.Tuple{{y1, w0}, {y1, z0}} {
		if !got.Contains(want) {
			t.Errorf("missing answer %v in %s", want, got.Dump(db.Syms))
		}
	}
}

func TestPartialSelectionDeepChain(t *testing.T) {
	// Multiple a-steps before reaching t0, verifying the tagged-seed
	// carry keeps branch-B answers associated with their seeds.
	prog := mustProgram(t, example24)
	db := database.New()
	mustLoad(t, db, `
a(c, y1, m1, n1). a(m1, n1, m2, n2). a(m2, n2, m3, n3).
t0(m3, n3, w).
b(w, z).
`)
	got := checkAgainstSemiNaive(t, prog, db, `t(c, Y, Z)?`)
	if got.Len() != 2 { // (y1,w) and (y1,z)
		t.Fatalf("answers = %s", got.Dump(db.Syms))
	}
}

func TestMultiColumnFullSelection(t *testing.T) {
	// Fully binding the {1,2} class of Example 2.4.
	prog := mustProgram(t, example24)
	db := database.New()
	mustLoad(t, db, `
a(c, d, u1, v1). a(u1, v1, u2, v2).
t0(u2, v2, w1). t0(c, d, w0).
b(w1, z1). b(w0, z0).
`)
	checkAgainstSemiNaive(t, prog, db, `t(c, d, Z)?`)
}

func TestThirdColumnSelectionExample24(t *testing.T) {
	prog := mustProgram(t, example24)
	db := database.New()
	mustLoad(t, db, `
a(c, d, u1, v1).
t0(u1, v1, w1).
b(w1, z1). b(z1, z2).
`)
	checkAgainstSemiNaive(t, prog, db, `t(X, Y, z2)?`)
	checkAgainstSemiNaive(t, prog, db, `t(X, Y, w1)?`)
}

func TestOverconstrainedQueryPostFilter(t *testing.T) {
	// Constants beyond the driving class must filter answers.
	db := example11DB(t)
	got := checkAgainstSemiNaive(t, mustProgram(t, example12Fixture(t, db)), db, `buys(tom, tv)?`)
	_ = got
}

// example12Fixture loads Example 1.2 facts into db and returns the program.
func example12Fixture(t *testing.T, db *database.Database) string {
	mustLoad(t, db, `cheaper(radio, tv).`)
	return example12
}

func TestConditionFourRelaxedStillCorrect(t *testing.T) {
	// §5: without condition 4 the algorithm stays correct (it just loses
	// focus). The non-chain rule t(X,Y) :- a(X,W) & t(W,Z) & b(Z,Y).
	prog := mustProgram(t, `
t(X, Y) :- a(X, W) & t(W, Z) & b(Z, Y).
t(X, Y) :- t0(X, Y).
`)
	db := database.New()
	mustLoad(t, db, `
a(x0, x1). a(x1, x2).
t0(x2, m0). t0(x1, m1). t0(x0, m2).
b(m0, y0). b(m1, y1). b(y1, y2). b(m2, y3).
`)
	q := mustQuery(t, `t(x0, Y)?`)
	got, err := Answer(prog, db, q, EvalOptions{AllowDisconnected: true})
	if err != nil {
		t.Fatal(err)
	}
	want := seminaiveAnswer(t, prog, db, q)
	if !got.Equal(want) {
		t.Fatalf("relaxed Separable = %s, semi-naive = %s", got.Dump(db.Syms), want.Dump(db.Syms))
	}
}

func TestOtherIDBPredicatesMaterialized(t *testing.T) {
	// The nonrecursive predicates may themselves be IDB-defined, as long
	// as they do not depend on t (§2).
	prog := mustProgram(t, `
contact(X, Y) :- friend(X, Y).
contact(X, Y) :- idol(X, Y).
buys(X, Y) :- contact(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`)
	db := example11DB(t)
	got := checkAgainstSemiNaive(t, prog, db, `buys(tom, Y)?`)
	if got.Len() != 3 {
		t.Fatalf("answers = %s", got.Dump(db.Syms))
	}
}

func TestMultipleExitRules(t *testing.T) {
	prog := mustProgram(t, `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
buys(X, Y) :- gift(Y, X).
`)
	db := database.New()
	mustLoad(t, db, `
friend(tom, dick).
perfectFor(dick, tv).
gift(hat, dick).
`)
	got := checkAgainstSemiNaive(t, prog, db, `buys(tom, Y)?`)
	if dump := got.Dump(db.Syms); dump != "{(hat) (tv)}" {
		t.Fatalf("buys(tom, Y) = %s", dump)
	}
}

func TestLinearSizeOnExample11Database(t *testing.T) {
	// §4: on the Example 1.1 worst-case database (friend = idol = a chain)
	// Separable builds only monadic relations of size O(n).
	for _, n := range []int{8, 16, 32} {
		db := database.New()
		for i := 1; i < n; i++ {
			db.AddFact("friend", fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
			db.AddFact("idol", fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
		}
		db.AddFact("perfectFor", fmt.Sprintf("a%d", n), "item")
		c := stats.New()
		got, err := Answer(mustProgram(t, example11), db, mustQuery(t, `buys(a1, Y)?`), EvalOptions{Collector: c})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 {
			t.Fatalf("n=%d: answers = %d", n, got.Len())
		}
		if _, size := c.MaxRelation(); size > n+1 {
			t.Fatalf("n=%d: max relation size %d exceeds O(n) bound (%s)", n, size, c)
		}
	}
}

func TestLinearSizeOnExample12Database(t *testing.T) {
	// §4: Magic Sets is Ω(n²) here; Separable stays O(n).
	for _, n := range []int{8, 16, 32} {
		db := database.New()
		for i := 1; i < n; i++ {
			db.AddFact("friend", fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
			db.AddFact("cheaper", fmt.Sprintf("b%d", i), fmt.Sprintf("b%d", i+1))
		}
		db.AddFact("perfectFor", fmt.Sprintf("a%d", n), fmt.Sprintf("b%d", n))
		c := stats.New()
		got, err := Answer(mustProgram(t, example12), db, mustQuery(t, `buys(a1, Y)?`), EvalOptions{Collector: c})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != n {
			t.Fatalf("n=%d: answers = %d, want %d", n, got.Len(), n)
		}
		if _, size := c.MaxRelation(); size > n+1 {
			t.Fatalf("n=%d: max relation size %d exceeds O(n) bound (%s)", n, size, c)
		}
	}
}

func TestRandomizedCrossValidation(t *testing.T) {
	// Theorem 3.1 exercised on random databases: Separable must agree
	// with semi-naive on every query kind, including cyclic data.
	rng := rand.New(rand.NewSource(42))
	prog11 := mustProgram(t, example11)
	prog12 := mustProgram(t, example12)
	for trial := 0; trial < 60; trial++ {
		db := database.New()
		n := 3 + rng.Intn(8)
		name := func(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }
		addRandomEdges := func(pred, prefix string, m int) {
			for i := 0; i < m; i++ {
				db.AddFact(pred, name(prefix, rng.Intn(n)), name(prefix, rng.Intn(n)))
			}
		}
		addRandomEdges("friend", "p", 2*n)
		addRandomEdges("idol", "p", n)
		addRandomEdges("cheaper", "g", 2*n)
		for i := 0; i < n; i++ {
			db.AddFact("perfectFor", name("p", rng.Intn(n)), name("g", rng.Intn(n)))
		}
		queries := []string{
			fmt.Sprintf("buys(p%d, Y)?", rng.Intn(n)),
			fmt.Sprintf("buys(X, g%d)?", rng.Intn(n)),
			fmt.Sprintf("buys(p%d, g%d)?", rng.Intn(n), rng.Intn(n)),
		}
		for _, prog := range []*ast.Program{prog11, prog12} {
			for _, query := range queries {
				checkAgainstSemiNaive(t, prog, db, query)
			}
		}
	}
}

func TestRandomizedPartialSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := mustProgram(t, example24)
	for trial := 0; trial < 40; trial++ {
		db := database.New()
		n := 3 + rng.Intn(5)
		name := func(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }
		for i := 0; i < 2*n; i++ {
			db.AddFact("a", name("c", rng.Intn(n)), name("c", rng.Intn(n)), name("c", rng.Intn(n)), name("c", rng.Intn(n)))
		}
		for i := 0; i < n; i++ {
			db.AddFact("t0", name("c", rng.Intn(n)), name("c", rng.Intn(n)), name("w", rng.Intn(n)))
			db.AddFact("b", name("w", rng.Intn(n)), name("w", rng.Intn(n)))
		}
		queries := []string{
			fmt.Sprintf("t(c%d, Y, Z)?", rng.Intn(n)),
			fmt.Sprintf("t(X, c%d, Z)?", rng.Intn(n)),
			fmt.Sprintf("t(c%d, c%d, Z)?", rng.Intn(n), rng.Intn(n)),
			fmt.Sprintf("t(X, Y, w%d)?", rng.Intn(n)),
			fmt.Sprintf("t(c%d, Y, w%d)?", rng.Intn(n), rng.Intn(n)),
		}
		for _, query := range queries {
			checkAgainstSemiNaive(t, prog, db, query)
		}
	}
}

func TestRepeatedQueryVariable(t *testing.T) {
	prog := mustProgram(t, example11)
	db := database.New()
	mustLoad(t, db, `
friend(a, b).
perfectFor(b, b). perfectFor(b, c). perfectFor(a, a).
`)
	got := checkAgainstSemiNaive(t, prog, db, `buys(a, a)?`)
	if got.Len() != 1 {
		t.Fatalf("buys(a,a) = %d tuples", got.Len())
	}
}

func TestStatsRelationNames(t *testing.T) {
	db := example11DB(t)
	c := stats.New()
	if _, err := Answer(mustProgram(t, example11), db, mustQuery(t, `buys(tom, Y)?`), EvalOptions{Collector: c}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"carry1", "seen1", "carry2", "seen2", "ans"} {
		if _, ok := c.Sizes[name]; !ok {
			t.Errorf("collector missing %s: %s", name, c)
		}
	}
	// seen1 holds everyone reachable from tom through friend or idol:
	// tom, dick, harry, mel.
	if c.Sizes["seen1"] != 4 {
		t.Errorf("seen1 = %d, want 4 (%s)", c.Sizes["seen1"], c)
	}
}

func TestSeparableWithBuiltinInConjunction(t *testing.T) {
	// A builtin disequality inside a_ij: "influence spreads to friends with
	// a different tier".
	prog := mustProgram(t, `
buys(X, Y) :- friend(X, W) & tier(X, TX) & tier(W, TW) & neq(TX, TW) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`)
	db := database.New()
	mustLoad(t, db, `
friend(a, b). friend(b, c).
tier(a, gold). tier(b, silver). tier(c, silver).
perfectFor(c, g1). perfectFor(b, g2).
`)
	// a-b differ in tier (edge usable); b-c share a tier (edge unusable).
	got := checkAgainstSemiNaive(t, prog, db, `buys(a, Y)?`)
	if dump := got.Dump(db.Syms); dump != "{(g2)}" {
		t.Fatalf("buys(a, Y) = %s", dump)
	}
}

func TestMultiplePersistentColumnsBound(t *testing.T) {
	// Two persistent columns, both bound: the dummy-class driver covers
	// both at once.
	prog := mustProgram(t, `
t(X, Y, Z) :- a(X, W) & t(W, Y, Z).
t(X, Y, Z) :- t0(X, Y, Z).
`)
	db := database.New()
	mustLoad(t, db, `
a(x1, x2). a(x2, x3).
t0(x3, p, q). t0(x3, p, r). t0(x1, s, q).
`)
	got := checkAgainstSemiNaive(t, prog, db, `t(X, p, q)?`)
	if dump := got.Dump(db.Syms); dump != "{(x1) (x2) (x3)}" {
		t.Fatalf("t(X, p, q) = %s", dump)
	}
	checkAgainstSemiNaive(t, prog, db, `t(X, p, Z)?`)
	checkAgainstSemiNaive(t, prog, db, `t(x1, Y, q)?`)
}
