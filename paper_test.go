package sepdl

// The paper's §4 evaluation is analytic: it bounds the size of the largest
// relation each algorithm constructs while answering a selection
// (Definition 4.2). Each test below is one row of EXPERIMENTS.md, asserted
// as an exact formula at two or three sizes. The strategies are called as
// packages, not through the engine, and sizes are read from the
// stats.Collector each one reports into.

import (
	"errors"
	"fmt"
	"testing"

	"sepdl/internal/aho"
	"sepdl/internal/ast"
	"sepdl/internal/core"
	"sepdl/internal/counting"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/eval"
	"sepdl/internal/hn"
	"sepdl/internal/magic"
	"sepdl/internal/parser"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
	"sepdl/internal/tabling"
)

// paperAlgo answers q over prog and db, reporting relation sizes into c.
type paperAlgo func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error)

var (
	// paperSeparable runs Figure 2, with the §5 condition-4 relaxation on
	// so e6's disconnected program is accepted.
	paperSeparable paperAlgo = func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error) {
		return core.Answer(prog, db, q, core.EvalOptions{Collector: c, AllowDisconnected: true})
	}
	paperMagic paperAlgo = func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error) {
		return magic.Answer(prog, db, q, magic.Options{Collector: c})
	}
	paperSemiNaive paperAlgo = func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error) {
		view, err := eval.Run(prog, db, eval.Options{Collector: c})
		if err != nil {
			return nil, err
		}
		return eval.Answer(view, q)
	}
	paperCounting paperAlgo = func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error) {
		return counting.Answer(prog, db, q, counting.Options{Collector: c})
	}
	paperHN paperAlgo = func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error) {
		return hn.Answer(prog, db, q, hn.Options{Collector: c})
	}
	paperAho paperAlgo = func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error) {
		return aho.Answer(prog, db, q, aho.Options{Collector: c})
	}
	paperTabling paperAlgo = func(prog *ast.Program, db *database.Database, q ast.Atom, c *stats.Collector) (*rel.Relation, error) {
		return tabling.Answer(prog, db, q, tabling.Options{Collector: c})
	}
)

// paperTry runs one algorithm and returns its answers, its sizes and its
// error.
func paperTry(t *testing.T, algo paperAlgo, prog *ast.Program, db *database.Database, query string) (*rel.Relation, *stats.Collector, error) {
	t.Helper()
	q, err := parser.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	c := stats.New()
	ans, err := algo(prog, db, q, c)
	return ans, c, err
}

// paperRun is paperTry for runs that must succeed.
func paperRun(t *testing.T, algo paperAlgo, prog *ast.Program, db *database.Database, query string) (*rel.Relation, *stats.Collector) {
	t.Helper()
	ans, c, err := paperTry(t, algo, prog, db, query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return ans, c
}

// wantSize fails t unless got equals want.
func wantSize(t *testing.T, what string, got, want int) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, want %d", what, got, want)
	}
}

// wantLargest fails t unless the largest relation c observed has size want.
func wantLargest(t *testing.T, algo string, c *stats.Collector, want int) {
	t.Helper()
	name, size := c.MaxRelation()
	if size != want {
		t.Errorf("%s largest relation %s = %d, want %d (%s)", algo, name, size, want, c)
	}
}

// wantSameAnswers fails t unless every answer set equals the first.
func wantSameAnswers(t *testing.T, names []string, answers ...*rel.Relation) {
	t.Helper()
	for i := 1; i < len(answers); i++ {
		if !answers[0].Equal(answers[i]) {
			t.Errorf("%s answers %s, %s answers %s", names[0], answers[0], names[i], answers[i])
		}
	}
}

// TestPaperE1 — §4 on Example 1.2, buys(a1, Y)?: Magic Sets and
// semi-naive materialize the whole n² buys matrix, top-down tabling does
// n² + n work, and Separable's largest relation is n.
func TestPaperE1(t *testing.T) {
	prog := datagen.Example12Program()
	for _, n := range []int{8, 16, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			db := datagen.Example12DB(n)
			const q = "buys(a1, Y)?"
			ms, mc := paperRun(t, paperMagic, prog, db, q)
			sn, nc := paperRun(t, paperSemiNaive, prog, db, q)
			tb, tc := paperRun(t, paperTabling, prog, db, q)
			sp, sc := paperRun(t, paperSeparable, prog, db, q)
			wantSize(t, "magic buys@bf", mc.Sizes["buys@bf"], n*n)
			wantSize(t, "semi-naive buys", nc.Sizes["buys"], n*n)
			wantSize(t, "tabling total", tc.TotalSize(), n*n+n)
			wantLargest(t, "separable", sc, n)
			wantSize(t, "answers", sp.Len(), n)
			wantSameAnswers(t, []string{"separable", "magic", "semi-naive", "tabling"}, sp, ms, sn, tb)
		})
	}
}

// TestPaperE2 — §4 on Example 1.1 with friend = idol = one chain:
// Generalized Counting's count relation is 2ⁿ − 1, Henschen–Naqvi binds
// 3·2ⁿ⁻¹ − 1 rule-string prefixes, and Separable's seen1 is n.
func TestPaperE2(t *testing.T) {
	prog := datagen.Example11Program()
	for _, n := range []int{6, 8, 10} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			db := datagen.Example11DB(n, true)
			const q = "buys(a1, Y)?"
			ca, cc := paperRun(t, paperCounting, prog, db, q)
			ha, hc := paperRun(t, paperHN, prog, db, q)
			sp, sc := paperRun(t, paperSeparable, prog, db, q)
			wantSize(t, "counting count", cc.Sizes["count"], 1<<n-1)
			wantSize(t, "hn hn_bindings", hc.Sizes["hn_bindings"], 3<<(n-1)-1)
			wantSize(t, "separable seen1", sc.Sizes["seen1"], n)
			wantSameAnswers(t, []string{"separable", "counting", "hn"}, sp, ca, ha)
		})
	}
}

// TestPaperE3 — Lemma 4.2 on the left-linear arity-k recursion over the
// full nᵏ t0 relation: Magic's largest relation is nᵏ, Separable's is
// nᵏ⁻¹.
func TestPaperE3(t *testing.T) {
	for _, k := range []int{2, 3} {
		prog := datagen.LeftLinearProgram(k, 2)
		q := "t(c1"
		for i := 1; i < k; i++ {
			q += fmt.Sprintf(", Y%d", i)
		}
		q += ")?"
		for _, n := range []int{4, 8} {
			t.Run(fmt.Sprintf("n=%d,k=%d", n, k), func(t *testing.T) {
				db := datagen.Lemma42DB(n, k, 2)
				ms, mc := paperRun(t, paperMagic, prog, db, q)
				sp, sc := paperRun(t, paperSeparable, prog, db, q)
				wantLargest(t, "magic", mc, pow(n, k))
				wantLargest(t, "separable", sc, pow(n, k-1))
				wantSameAnswers(t, []string{"separable", "magic"}, sp, ms)
			})
		}
	}
}

// TestPaperE4 — Lemma 4.3 with p identical chain relations: Counting's
// count relation is Σᵢ₌₀..ₙ₋₁ pⁱ, Separable's seen1 is n whatever p is.
func TestPaperE4(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		prog := datagen.LeftLinearProgram(2, p)
		for _, n := range []int{4, 6} {
			t.Run(fmt.Sprintf("n=%d,p=%d", n, p), func(t *testing.T) {
				db := datagen.Lemma43DB(n, 2, p)
				const q = "t(c1, Y)?"
				ca, cc := paperRun(t, paperCounting, prog, db, q)
				sp, sc := paperRun(t, paperSeparable, prog, db, q)
				sum := 0
				for i := 0; i < n; i++ {
					sum += pow(p, i)
				}
				wantSize(t, "counting count", cc.Sizes["count"], sum)
				wantSize(t, "separable seen1", sc.Sizes["seen1"], n)
				wantSameAnswers(t, []string{"separable", "counting"}, sp, ca)
			})
		}
	}
}

// TestPaperE5 — §3.1: detection works on the rules alone. core.Analyze
// takes no database, so it touches no relation; it must accept every
// (r rules, arity k, body length l) point of the sweep.
func TestPaperE5(t *testing.T) {
	for _, x := range []struct{ r, k, l int }{
		{2, 2, 2}, {8, 2, 2}, {32, 2, 2}, {2, 8, 2}, {2, 32, 2}, {2, 2, 8}, {2, 2, 32}, {16, 16, 16},
	} {
		if _, err := core.Analyze(datagen.DetectionProgram(x.r, x.k, x.l), "t"); err != nil {
			t.Errorf("r=%d k=%d l=%d: %v", x.r, x.k, x.l, err)
		}
	}
}

// TestPaperE6 — §5: with condition 4 dropped Separable stays correct but
// loses focus. Its seen1 spans n(n−1)/2 pairs of the disconnected side,
// against Magic's n(n+1)/2 t@bf.
func TestPaperE6(t *testing.T) {
	prog := datagen.DisconnectedProgram()
	for _, n := range []int{8, 16, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			db := datagen.DisconnectedDB(n)
			const q = "t(x1, Y)?"
			sp, sc := paperRun(t, paperSeparable, prog, db, q)
			ms, mc := paperRun(t, paperMagic, prog, db, q)
			sn, _ := paperRun(t, paperSemiNaive, prog, db, q)
			wantSize(t, "separable seen1", sc.Sizes["seen1"], n*(n-1)/2)
			wantSize(t, "magic t@bf", mc.Sizes["t@bf"], n*(n+1)/2)
			wantSameAnswers(t, []string{"semi-naive", "separable", "magic"}, sn, sp, ms)
		})
	}
}

// TestPaperE7 — §1: on a cyclic friend graph Counting and Henschen–Naqvi
// report divergence, while Separable and Magic terminate and agree.
func TestPaperE7(t *testing.T) {
	prog := datagen.Example11Program()
	for _, n := range []int{4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			db := database.New()
			datagen.Cycle(db, "friend", "a", n)
			datagen.Chain(db, "idol", "a", n)
			db.AddFact("perfectFor", datagen.Name("a", n), "item")
			const q = "buys(a1, Y)?"
			if _, _, err := paperTry(t, paperCounting, prog, db, q); !errors.Is(err, counting.ErrDiverged) {
				t.Errorf("counting err = %v, want %v", err, counting.ErrDiverged)
			}
			if _, _, err := paperTry(t, paperHN, prog, db, q); !errors.Is(err, hn.ErrDiverged) {
				t.Errorf("hn err = %v, want %v", err, hn.ErrDiverged)
			}
			sp, _ := paperRun(t, paperSeparable, prog, db, q)
			ms, _ := paperRun(t, paperMagic, prog, db, q)
			wantSameAnswers(t, []string{"separable", "magic"}, sp, ms)
		})
	}
}

// TestPaperE8 — the average case on random sparse graphs (Example 1.1,
// fixed seeds): Magic's largest relation is at least 10× Separable's, and
// the answers agree. The smallest ratio measured over these points is 17×.
func TestPaperE8(t *testing.T) {
	prog := datagen.Example11Program()
	for _, n := range []int{32, 128} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n=%d,seed=%d", n, seed), func(t *testing.T) {
				db := datagen.RandomBuysDB(n, 1.5, seed)
				const q = "buys(p1, Y)?"
				sp, sc := paperRun(t, paperSeparable, prog, db, q)
				ms, mc := paperRun(t, paperMagic, prog, db, q)
				_, s := sc.MaxRelation()
				_, m := mc.MaxRelation()
				if m < 10*s {
					t.Errorf("magic largest %d < 10 × separable largest %d", m, s)
				}
				wantSameAnswers(t, []string{"separable", "magic"}, sp, ms)
			})
		}
	}
}

// TestPaperE9 — the §1 remark on [AU79]: on buys(X, item)? Aho–Ullman
// selection pushing builds an n-tuple buys and returns Separable's
// answers; on the class-column selection buys(a1, Y)? it does not apply.
func TestPaperE9(t *testing.T) {
	prog := datagen.Example11Program()
	for _, n := range []int{16, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			db := datagen.Example11DB(n, true)
			sp, _ := paperRun(t, paperSeparable, prog, db, "buys(X, item)?")
			aa, ac := paperRun(t, paperAho, prog, db, "buys(X, item)?")
			wantSize(t, "aho buys", ac.Sizes["buys"], n)
			wantSameAnswers(t, []string{"separable", "aho"}, sp, aa)
			if _, _, err := paperTry(t, paperAho, prog, db, "buys(a1, Y)?"); !errors.Is(err, aho.ErrUnsupported) {
				t.Errorf("aho on a class column: err = %v, want %v", err, aho.ErrUnsupported)
			}
		})
	}
}

// pow returns bᵉ for small non-negative e.
func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}
