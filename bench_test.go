package sepdl

// Benchmarks regenerating the paper's §4 comparisons (one benchmark family
// per experiment in DESIGN.md's index) plus ablations of the design
// decisions DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The asymptotic claims are about the sizes of the relations each method
// constructs; paper_test.go asserts those exactly. The benchmarks here
// show the wall-clock consequence of the same gaps.

import (
	"fmt"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/conj"
	"sepdl/internal/core"
	"sepdl/internal/counting"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/eval"
	"sepdl/internal/hn"
	"sepdl/internal/magic"
	"sepdl/internal/parser"
)

func mustQ(b *testing.B, s string) ast.Atom {
	b.Helper()
	q, err := parser.Query(s)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func runSeparable(b *testing.B, prog *ast.Program, db *database.Database, query string, opts core.EvalOptions) {
	b.Helper()
	q := mustQ(b, query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Answer(prog, db, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func runMagic(b *testing.B, prog *ast.Program, db *database.Database, query string, naive bool) {
	b.Helper()
	q := mustQ(b, query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := magic.Answer(prog, db, q, magic.Options{Naive: naive}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: Example 1.2, Magic Ω(n²) vs Separable O(n) ------------------------

func BenchmarkE1Separable(b *testing.B) {
	prog := datagen.Example12Program()
	for _, n := range []int{16, 64, 256, 1024} {
		db := datagen.Example12DB(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runSeparable(b, prog, db, "buys(a1, Y)?", core.EvalOptions{})
		})
	}
}

func BenchmarkE1Magic(b *testing.B) {
	prog := datagen.Example12Program()
	for _, n := range []int{16, 64, 256} {
		db := datagen.Example12DB(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runMagic(b, prog, db, "buys(a1, Y)?", false)
		})
	}
}

// --- E2: Example 1.1, Counting/HN Ω(2ⁿ) vs Separable O(n) ------------------

func BenchmarkE2Separable(b *testing.B) {
	prog := datagen.Example11Program()
	for _, n := range []int{8, 12, 16} {
		db := datagen.Example11DB(n, true)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runSeparable(b, prog, db, "buys(a1, Y)?", core.EvalOptions{})
		})
	}
}

func BenchmarkE2Counting(b *testing.B) {
	prog := datagen.Example11Program()
	for _, n := range []int{8, 12, 16} {
		db := datagen.Example11DB(n, true)
		q := mustQ(b, "buys(a1, Y)?")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := counting.Answer(prog, db, q, counting.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE2HenschenNaqvi(b *testing.B) {
	prog := datagen.Example11Program()
	for _, n := range []int{8, 12, 16} {
		db := datagen.Example11DB(n, true)
		q := mustQ(b, "buys(a1, Y)?")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hn.Answer(prog, db, q, hn.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: Lemma 4.2, Magic Ω(n^k) vs Separable O(n^{k-1}) -------------------

func BenchmarkE3Separable(b *testing.B) {
	for _, k := range []int{2, 3} {
		prog := datagen.LeftLinearProgram(k, 2)
		for _, n := range []int{8, 16} {
			db := datagen.Lemma42DB(n, k, 2)
			query := lemmaQuery(k)
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				runSeparable(b, prog, db, query, core.EvalOptions{})
			})
		}
	}
}

func BenchmarkE3Magic(b *testing.B) {
	for _, k := range []int{2, 3} {
		prog := datagen.LeftLinearProgram(k, 2)
		for _, n := range []int{8, 16} {
			db := datagen.Lemma42DB(n, k, 2)
			query := lemmaQuery(k)
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				runMagic(b, prog, db, query, false)
			})
		}
	}
}

func lemmaQuery(k int) string {
	q := "t(c1"
	for i := 1; i < k; i++ {
		q += fmt.Sprintf(", Y%d", i)
	}
	return q + ")?"
}

// --- E4: Lemma 4.3, Counting Ω(pⁿ) vs Separable O(n) -----------------------

func BenchmarkE4Counting(b *testing.B) {
	for _, p := range []int{1, 2, 3} {
		prog := datagen.LeftLinearProgram(2, p)
		for _, n := range []int{6, 10} {
			db := datagen.Lemma43DB(n, 2, p)
			q := mustQ(b, "t(c1, Y)?")
			b.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := counting.Answer(prog, db, q, counting.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkE4Separable(b *testing.B) {
	for _, p := range []int{1, 2, 3} {
		prog := datagen.LeftLinearProgram(2, p)
		for _, n := range []int{6, 10} {
			db := datagen.Lemma43DB(n, 2, p)
			b.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(b *testing.B) {
				runSeparable(b, prog, db, "t(c1, Y)?", core.EvalOptions{})
			})
		}
	}
}

// --- E5: §3.1 detection cost in the rule parameters ------------------------

func BenchmarkDetection(b *testing.B) {
	for _, x := range []struct{ r, k, l int }{{2, 2, 2}, {8, 4, 4}, {32, 8, 8}, {16, 16, 16}} {
		prog := datagen.DetectionProgram(x.r, x.k, x.l)
		b.Run(fmt.Sprintf("r=%d,k=%d,l=%d", x.r, x.k, x.l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(prog, "t"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: §5 condition-4 relaxation ------------------------------------------

func BenchmarkE6RelaxedSeparable(b *testing.B) {
	prog := datagen.DisconnectedProgram()
	for _, n := range []int{32, 128} {
		db := datagen.DisconnectedDB(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runSeparable(b, prog, db, "t(x1, Y)?", core.EvalOptions{AllowDisconnected: true})
		})
	}
}

// --- E8: random-graph average case ------------------------------------------

func BenchmarkE8RandomSeparable(b *testing.B) {
	prog := datagen.Example11Program()
	for _, n := range []int{64, 256, 1024} {
		db := datagen.RandomBuysDB(n, 1.5, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runSeparable(b, prog, db, "buys(p1, Y)?", core.EvalOptions{})
		})
	}
}

func BenchmarkE8RandomMagic(b *testing.B) {
	prog := datagen.Example11Program()
	for _, n := range []int{64, 256, 1024} {
		db := datagen.RandomBuysDB(n, 1.5, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runMagic(b, prog, db, "buys(p1, Y)?", false)
		})
	}
}

// --- Ablations ---------------------------------------------------------------

// AblationNoIndex: conjunction evaluation by scan+filter instead of hash
// index probes.
func BenchmarkAblationNoIndex(b *testing.B) {
	db := datagen.Example12DB(512)
	atoms := []ast.Atom{
		{Pred: "friend", Args: []ast.Term{ast.V("X"), ast.V("W")}},
		{Pred: "friend", Args: []ast.Term{ast.V("W"), ast.V("Y")}},
	}
	for _, noIndex := range []bool{false, true} {
		name := "indexed"
		if noIndex {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			plan, err := conj.CompileWith(atoms, nil, db.Syms.Intern, conj.CompileOptions{NoIndex: noIndex})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := plan.Stream(conj.DBSource(db.Relation), nil)
				for _, ok := st.Next(); ok; _, ok = st.Next() {
				}
			}
		})
	}
}

// AblationNaive: semi-naive vs naive fixpoint on the magic-rewritten
// Example 1.2 program.
func BenchmarkAblationNaive(b *testing.B) {
	prog := datagen.Example12Program()
	db := datagen.Example12DB(64)
	for _, naive := range []bool{false, true} {
		name := "seminaive"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			runMagic(b, prog, db, "buys(a1, Y)?", naive)
		})
	}
}

// AblationReorder: greedy bound-first atom ordering vs textual order, on a
// body whose selective atom comes last.
func BenchmarkAblationReorder(b *testing.B) {
	db := datagen.Example12DB(512)
	atoms := []ast.Atom{
		{Pred: "friend", Args: []ast.Term{ast.V("X"), ast.V("W")}},
		{Pred: "friend", Args: []ast.Term{ast.C("a1"), ast.V("X")}},
	}
	for _, noReorder := range []bool{false, true} {
		name := "greedy"
		if noReorder {
			name = "textual"
		}
		b.Run(name, func(b *testing.B) {
			plan, err := conj.CompileWith(atoms, nil, db.Syms.Intern, conj.CompileOptions{NoReorder: noReorder})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := plan.Stream(conj.DBSource(db.Relation), nil)
				for _, ok := st.Next(); ok; _, ok = st.Next() {
				}
			}
		})
	}
}

// Engine-level benchmark: the public API end to end with Auto strategy.
func BenchmarkEngineAutoQuery(b *testing.B) {
	e := New()
	if err := e.LoadProgram(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < 256; i++ {
		e.AddFact("friend", datagen.Name("a", i), datagen.Name("a", i+1))
		e.AddFact("cheaper", datagen.Name("b", i), datagen.Name("b", i+1))
	}
	e.AddFact("perfectFor", "a256", "b256")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query("buys(a1, Y)?"); err != nil {
			b.Fatal(err)
		}
	}
}

// Semi-naive engine baseline for reference on full evaluation.
func BenchmarkSemiNaiveFull(b *testing.B) {
	prog := datagen.Example12Program()
	for _, n := range []int{16, 64} {
		db := datagen.Example12DB(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Run(prog, db, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// AblationSupplementaryMagic: basic vs supplementary magic rewrite on the
// same-generation program, where the recursive rule's prefix join is shared
// between the magic rule and the answer rule.
func BenchmarkAblationSupplementaryMagic(b *testing.B) {
	prog, err := parser.Program(`
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U) & sg(U, V) & down(V, Y).
`)
	if err != nil {
		b.Fatal(err)
	}
	db := database.New()
	const n = 64
	for i := 1; i < n; i++ {
		db.AddFact("up", datagen.Name("c", i), datagen.Name("p", i))
		db.AddFact("down", datagen.Name("p", i), datagen.Name("c", i+1))
		db.AddFact("flat", datagen.Name("p", i), datagen.Name("p", i))
	}
	q := mustQ(b, "sg(c1, Y)?")
	for _, sup := range []bool{false, true} {
		name := "basic"
		if sup {
			name = "supplementary"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := magic.Answer(prog, db, q, magic.Options{Supplementary: sup}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Incremental maintenance vs recomputation: one fact insertion into a
// large materialized transitive closure.
func BenchmarkIncrementalInsert(b *testing.B) {
	prog, err := parser.Program(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, W) & path(W, Y).
`)
	if err != nil {
		b.Fatal(err)
	}
	const n = 256
	build := func() *database.Database {
		db := database.New()
		datagen.Chain(db, "edge", "v", n)
		return db
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, err := eval.Materialize(prog, build(), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			// A leaf edge: few new derivations.
			if _, err := m.AddFact("edge", datagen.Name("v", n), "vnew"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := build()
			db.AddFact("edge", datagen.Name("v", n), "vnew")
			b.StartTimer()
			if _, err := eval.Run(prog, db, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalDelete times DRed: one mid-chain edge deleted from
// a materialized doubled chain, where every hub reaches the next through
// two parallel paths. The deletion over-deletes every buys tuple upstream
// of the cut and re-derives each one through the surviving path.
func BenchmarkIncrementalDelete(b *testing.B) {
	prog, err := parser.Program(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`)
	if err != nil {
		b.Fatal(err)
	}
	const hubs = 256
	db := database.New()
	for i := 0; i+1 < hubs; i++ {
		db.AddFact("friend", datagen.Name("a", i), datagen.Name("x", i))
		db.AddFact("friend", datagen.Name("x", i), datagen.Name("a", i+1))
		db.AddFact("friend", datagen.Name("a", i), datagen.Name("y", i))
		db.AddFact("friend", datagen.Name("y", i), datagen.Name("a", i+1))
	}
	db.AddFact("perfectFor", datagen.Name("a", hubs-1), "g")
	mid := datagen.Name("a", hubs/2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := eval.Materialize(prog, db, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if ok, err := m.DeleteFact("friend", mid, datagen.Name("x", hubs/2)); err != nil || !ok {
			b.Fatalf("DeleteFact = %v, %v", ok, err)
		}
	}
}

// BenchmarkViewQueryThenAdd alternates View.Query and View.AddFact over a
// 400-node chain's closure: the one path where sharing indexes with
// snapshots trades. Each query's snapshot shares the maintained path
// relation's index cache, so the next AddFact starts a new generation and
// its propagation rebuilds the index the following query then reuses.
func BenchmarkViewQueryThenAdd(b *testing.B) {
	const n = 400
	e := New()
	if err := e.LoadProgram(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, W) & path(W, Y).
`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.AddFact("edge", datagen.Name("v", i), datagen.Name("v", i+1)); err != nil {
			b.Fatal(err)
		}
	}
	v, err := e.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := v.Query("path(v200, Y)?")
		if err != nil || len(res.Rows()) != n-200 {
			b.Fatalf("query: %v", err)
		}
		// An isolated edge: one new derivation, but a write to every
		// relation the query's snapshot shares.
		if _, err := v.AddFact("edge", datagen.Name("u", i), datagen.Name("w", i)); err != nil {
			b.Fatal(err)
		}
	}
}
