package sepdl

import (
	"fmt"
	"testing"

	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// Indexes belong to a relation's storage generation: every snapshot of an
// unmodified relation shares one lazily built index cache, and the first
// write starts a new generation. The differential harness's cold and view
// modes interleave writes and queries so that writes land on relations
// earlier queries indexed; the test below pins the index cache itself.

// TestColdNonPrefixIndexOncePerGeneration: in Example 1.2 every strategy
// probes cheaper(Y, W) with W bound — column 1, not a prefix — which on a
// cold relation materializes the segment rows into a hash index. That
// build happens once per generation: a later query on the unmodified
// engine gets the same index, and the first write replaces it with one
// that sees the write.
func TestColdNonPrefixIndexOncePerGeneration(t *testing.T) {
	leakcheck.CheckResources(t)
	const program = `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`
	var facts [][]string
	for i := 0; i < 24; i++ {
		facts = append(facts,
			[]string{"friend", fmt.Sprintf("a%02d", i), fmt.Sprintf("a%02d", i+1)},
			[]string{"cheaper", fmt.Sprintf("g%02d", i+1), fmt.Sprintf("g%02d", i)})
	}
	facts = append(facts, []string{"perfectFor", "a24", "g00"})

	e, err := Open(t.TempDir(), WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	queries := []string{"buys(a00, Y)?", "buys(a12, Y)?", "buys(X, g05)?"}

	cheaperIndex := func() *rel.Index {
		_, db, _ := e.snapshot()
		r := db.Relation("cheaper")
		if r.Cold() == nil {
			t.Fatal("cheaper is not cold after the checkpoint")
		}
		return r.Index([]int{1})
	}
	agree(t, "first generation", e, plainEngine(t, program, factText(facts)), queries)
	first := cheaperIndex()
	agree(t, "first generation, again", e, plainEngine(t, program, factText(facts)), queries)
	if cheaperIndex() != first {
		t.Fatal("a second query on the unmodified engine rebuilt the non-prefix index")
	}

	extra := []string{"cheaper", "g99", "g05"}
	if err := e.AddFact(extra[0], extra[1:]...); err != nil {
		t.Fatal(err)
	}
	facts = append(facts, extra)
	agree(t, "second generation", e, plainEngine(t, program, factText(facts)), queries)
	if cheaperIndex() == first {
		t.Fatal("the write kept the previous generation's index")
	}
}
