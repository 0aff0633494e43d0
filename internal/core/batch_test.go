package core

import (
	"maps"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/plancache"
	"sepdl/internal/stats"
)

// TestAnswerBatchRepeatedSeeds runs AnswerBatch on persistent, full-class
// and partial (Lemma 2.1) selections, each batch repeating one of its
// queries, without and with the closure cache. Every answer
// must equal its own Answer, and a batch of one query repeated must build
// exactly the single query's Figure 2 relations: the same carry and seen
// maxima, rounds, insertions and peak intermediate bytes, with ans counting
// each repeat's answers.
func TestAnswerBatchRepeatedSeeds(t *testing.T) {
	ex24 := database.New()
	mustLoad(t, ex24, `
a(c, y1, u1, v1). a(u1, v1, u2, v2). a(qq, zz, u9, v9). a(c, y2, u1, v1).
t0(u2, v2, w1). t0(c, y1, w0). t0(u9, v9, w9). t0(c, y2, w1).
b(w1, z1). b(z1, z2). b(w0, z0).
`)
	cases := []struct {
		name, prog string
		db         *database.Database
		queries    []string
	}{
		{"persistent", example11, example11DB(t), []string{`buys(X, radio)?`, `buys(X, hat)?`, `buys(X, radio)?`}},
		{"full-class", example11, example11DB(t), []string{`buys(tom, Y)?`, `buys(dick, Y)?`, `buys(tom, Y)?`}},
		{"partial", example24, ex24, []string{`t(c, Y, Z)?`, `t(u1, Y, Z)?`, `t(c, Y, Z)?`}},
		{"multiclass", datagen.MultiClassProgram(3).String(), datagen.MultiClassDB(4, 3),
			[]string{`t(c1v1, Y, Z)?`, `t(c1v2, Y, Z)?`, `t(c1v1, Y, Z)?`}},
	}
	paths := []struct {
		name string
		opts func(*stats.Collector) EvalOptions
	}{
		{"loop", func(c *stats.Collector) EvalOptions { return EvalOptions{Collector: c} }},
		{"product", func(c *stats.Collector) EvalOptions {
			return EvalOptions{Collector: c, Closures: plancache.NewClosures(0)}
		}},
	}
	for _, c := range cases {
		prog := mustProgram(t, c.prog)
		qs := make([]ast.Atom, len(c.queries))
		for i, s := range c.queries {
			qs[i] = mustQuery(t, s)
		}
		for _, p := range paths {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				got, err := AnswerBatch(prog, c.db, qs, p.opts(nil))
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					want, err := Answer(prog, c.db, q, p.opts(nil))
					if err != nil {
						t.Fatal(err)
					}
					if !got[i].Equal(want) {
						t.Errorf("%s: batch = %s, Answer = %s", q, got[i].Dump(c.db.Syms), want.Dump(c.db.Syms))
					}
				}

				single, repeat := stats.New(), stats.New()
				want, err := Answer(prog, c.db, qs[0], p.opts(single))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := AnswerBatch(prog, c.db, []ast.Atom{qs[0], qs[0]}, p.opts(repeat)); err != nil {
					t.Fatal(err)
				}
				ws, rs := single.SizesCopy(), repeat.SizesCopy()
				if rs["ans"] != 2*want.Len() {
					t.Errorf("repeated batch ans = %d, want %d", rs["ans"], 2*want.Len())
				}
				delete(ws, "ans")
				delete(rs, "ans")
				if !maps.Equal(rs, ws) {
					t.Errorf("repeated batch sizes = %v, single query = %v", rs, ws)
				}
				if repeat.Iterations != single.Iterations || repeat.Inserted != single.Inserted ||
					repeat.PeakIntermediate() != single.PeakIntermediate() {
					t.Errorf("repeated batch iterations/inserted/peak = %d/%d/%d, single query = %d/%d/%d",
						repeat.Iterations, repeat.Inserted, repeat.PeakIntermediate(),
						single.Iterations, single.Inserted, single.PeakIntermediate())
				}
			})
		}
	}
}
